package core

import (
	"testing"
	"time"

	"botgrid/internal/grid"
)

// fakeClock is a hand-advanced Clock for live-mode tests.
type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

// liveGrid builds n power-10 worker slots, all initially down (workers
// join by repairing), mirroring how internal/serve provisions slots.
func liveGrid(n int) *grid.Grid {
	powers := make([]float64, n)
	for i := range powers {
		powers[i] = 10
	}
	g := grid.NewCustom(grid.DefaultConfig(grid.Hom, grid.AlwaysUp), powers)
	for _, m := range g.Machines {
		m.ForceFail(0)
	}
	return g
}

func join(s *Scheduler, m *grid.Machine, now float64) {
	m.ForceRepair(now)
	s.MachineRepaired(m)
}

// TestLiveSchedulerLifecycle walks a full live episode: workers joining,
// WQR-FT dispatch and replication, a worker-reported completion killing
// the sibling replica, machine failures resubmitting a task, and bag
// completion stamped with wall-clock time.
func TestLiveSchedulerLifecycle(t *testing.T) {
	clk := &fakeClock{}
	g := liveGrid(4)
	s := NewLiveScheduler(clk, g, NewPolicy(FCFSShare, nil), DefaultSchedConfig(), nil)
	s.CheckInvariants()

	b := s.Submit(100, []float64{100, 100, 100})
	if s.PendingTasks() != 3 || s.RunningReplicas() != 0 {
		t.Fatalf("pending %d running %d before any worker", s.PendingTasks(), s.RunningReplicas())
	}

	// Three workers join and drain the queue in task order.
	for i := 0; i < 3; i++ {
		clk.t = float64(i + 1)
		join(s, g.Machines[i], clk.t)
		r := s.ReplicaOn(g.Machines[i])
		if r == nil || r.Task.ID != i {
			t.Fatalf("machine %d hosts %+v, want task %d", i, r, i)
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("replica seq %d, want %d", r.Seq, i+1)
		}
	}
	// A fourth worker joins with nothing pending: WQR-FT replicates the
	// lowest-ID running task under threshold 2.
	clk.t = 4
	join(s, g.Machines[3], clk.t)
	if r := s.ReplicaOn(g.Machines[3]); r == nil || r.Task.ID != 0 {
		t.Fatalf("machine 3 hosts %+v, want a task-0 replica", r)
	}
	s.CheckInvariants()

	// Worker 0 reports task 0 done: the sibling on machine 3 dies and
	// both freed machines immediately pick up replicas of tasks 1 and 2.
	clk.t = 5
	s.CompleteReplica(s.ReplicaOn(g.Machines[0]))
	if s.TasksCompleted() != 1 || s.ReplicasKilled() != 1 {
		t.Fatalf("completed %d killed %d", s.TasksCompleted(), s.ReplicasKilled())
	}
	if s.RunningReplicas() != 4 || s.FreeMachines() != 0 {
		t.Fatalf("running %d free %d after redispatch", s.RunningReplicas(), s.FreeMachines())
	}
	s.CheckInvariants()

	// Task 1 runs on machines 1 and 3 (its replica). Machine 1 failing
	// leaves the sibling alive; machine 3 failing too resubmits the task
	// at the queue front.
	clk.t = 6
	g.Machines[1].ForceFail(clk.t)
	s.MachineFailed(g.Machines[1])
	if s.PendingTasks() != 0 || s.ReplicaFailures() != 1 {
		t.Fatalf("pending %d failures %d after first failure", s.PendingTasks(), s.ReplicaFailures())
	}
	g.Machines[3].ForceFail(clk.t)
	s.MachineFailed(g.Machines[3])
	if s.PendingTasks() != 1 || s.ReplicaFailures() != 2 {
		t.Fatalf("pending %d failures %d after second failure", s.PendingTasks(), s.ReplicaFailures())
	}
	if !b.Tasks[1].Restart {
		t.Fatal("task 1 not marked for resubmission")
	}
	s.CheckInvariants()

	// Worker 1 returns and receives the resubmitted task.
	clk.t = 7
	join(s, g.Machines[1], clk.t)
	r1 := s.ReplicaOn(g.Machines[1])
	if r1 == nil || r1.Task.ID != 1 {
		t.Fatalf("machine 1 hosts %+v, want resubmitted task 1", r1)
	}

	// Finish the bag: task 1 on machine 1, task 2 on machine 2 (killing
	// its replica on machine 0).
	clk.t = 8
	s.CompleteReplica(r1)
	s.CompleteReplica(s.ReplicaOn(g.Machines[2]))
	if s.Completed() != 1 || !b.Complete() {
		t.Fatalf("completed %d, bag complete %v", s.Completed(), b.Complete())
	}
	if b.DoneAt != 8 || b.DoneAt-b.Arrival != 8 {
		t.Fatalf("bag done at %v (arrival %v), want wall-clock 8", b.DoneAt, b.Arrival)
	}
	s.CheckInvariants()
}

func TestCompleteReplicaStalePanics(t *testing.T) {
	clk := &fakeClock{}
	g := liveGrid(1)
	s := NewLiveScheduler(clk, g, NewPolicy(FCFSShare, nil), DefaultSchedConfig(), nil)
	s.Submit(100, []float64{50})
	join(s, g.Machines[0], 0)
	r := s.ReplicaOn(g.Machines[0])
	g.Machines[0].ForceFail(1)
	s.MachineFailed(g.Machines[0]) // kills r, resubmits the task
	defer func() {
		if recover() == nil {
			t.Fatal("completing a stale replica did not panic")
		}
	}()
	s.CompleteReplica(r)
}

func TestLiveSchedulerRejectsSuspendMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SuspendOnFailure accepted in live mode")
		}
	}()
	cfg := DefaultSchedConfig()
	cfg.SuspendOnFailure = true
	NewLiveScheduler(&fakeClock{}, liveGrid(1), NewPolicy(RR, nil), cfg, nil)
}

func TestWallClockMonotonic(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	time.Sleep(time.Millisecond)
	b := c.Now()
	if a < 0 || b <= a {
		t.Fatalf("wall clock not monotonic: %v then %v", a, b)
	}
}

// TestRestoreRefusesBadQueue: a snapshot whose pending queue contradicts
// its tasks — a task queued twice, a running task queued, a pending task
// missing — is refused.
func TestRestoreRefusesBadQueue(t *testing.T) {
	pending := TaskSnapshot{Work: 1, State: TaskPending, FirstStart: -1, DoneAt: -1}
	for name, queue := range map[string][]int{
		"queued twice":  {0, 0, 1},
		"out of range":  {0, 1, 2},
		"task missing":  {0},
		"negative task": {-1, 0, 1},
	} {
		snap := &SchedulerSnapshot{NextBagID: 1, Submitted: 1, Bags: []BagSnapshot{{
			ID: 0, FirstStart: -1, Tasks: []TaskSnapshot{pending, pending}, Pending: queue,
		}}}
		g := grid.NewCustom(grid.Config{}, []float64{1})
		if _, err := RestoreLiveScheduler(NewWallClock(), g, NewPolicy(FCFSShare, nil), DefaultSchedConfig(), nil, snap); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}
