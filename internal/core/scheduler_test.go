package core

import (
	"math"
	"slices"
	"testing"

	"botgrid/internal/checkpoint"
	"botgrid/internal/des"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
)

// fixture builds an engine + custom grid + scheduler for controlled tests.
// Checkpointing uses a degenerate U[cost,cost] transfer so durations are
// exact; avail selects the MTBF driving the Young interval (the
// availability *process* is not started — tests inject failures manually).
func fixture(t *testing.T, powers []float64, kind PolicyKind, sc SchedConfig,
	avail grid.Availability, ckptCost float64) (*des.Engine, *grid.Grid, *Scheduler) {
	t.Helper()
	eng := des.New()
	g := grid.NewCustom(grid.DefaultConfig(grid.Hom, avail), powers)
	cc := checkpoint.Config{Enabled: ckptCost > 0, TransferLo: ckptCost, TransferHi: ckptCost}
	ck := checkpoint.NewServer(cc, rng.New(1))
	s := NewScheduler(eng, g, ck, NewPolicy(kind, rng.New(2)), sc, nil)
	return eng, g, s
}

func defaultSC() SchedConfig { return SchedConfig{Threshold: 2} }

func TestSingleTaskCompletes(t *testing.T) {
	eng, _, s := fixture(t, []float64{10}, FCFSShare, defaultSC(), grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000})
	eng.Run()
	if !b.Complete() {
		t.Fatal("bag did not complete")
	}
	if b.DoneAt != 100 {
		t.Fatalf("DoneAt = %v, want 100 (1000 work / power 10)", b.DoneAt)
	}
	if b.FirstStart != 0 {
		t.Fatalf("FirstStart = %v, want 0", b.FirstStart)
	}
	if s.Completed() != 1 || s.FreeMachines() != 1 {
		t.Fatalf("completed=%d free=%d, want 1/1", s.Completed(), s.FreeMachines())
	}
}

func TestReplicationThreshold(t *testing.T) {
	eng, _, s := fixture(t, []float64{10, 10, 10}, FCFSShare, defaultSC(), grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000})
	// One task, threshold 2: exactly two replicas, one machine stays free.
	if got := b.RunningReplicas(); got != 2 {
		t.Fatalf("running replicas = %d, want 2", got)
	}
	if s.FreeMachines() != 1 {
		t.Fatalf("free machines = %d, want 1", s.FreeMachines())
	}
	eng.Run()
	if b.DoneAt != 100 {
		t.Fatalf("DoneAt = %v, want 100", b.DoneAt)
	}
	if s.FreeMachines() != 3 {
		t.Fatalf("free machines after completion = %d, want 3", s.FreeMachines())
	}
}

func TestPendingServedBeforeReplication(t *testing.T) {
	_, _, s := fixture(t, []float64{10, 10}, FCFSShare, defaultSC(), grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000, 1000})
	// WQR starts an instance of every pending task before replicating.
	for _, task := range b.Tasks {
		if len(task.Replicas) != 1 {
			t.Fatalf("task %d has %d replicas, want 1", task.ID, len(task.Replicas))
		}
	}
}

func TestFasterReplicaWins(t *testing.T) {
	eng, _, s := fixture(t, []float64{10, 20}, FCFSShare, defaultSC(), grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000})
	eng.Run()
	// The power-20 replica finishes at t=50 and kills its sibling.
	if b.DoneAt != 50 {
		t.Fatalf("DoneAt = %v, want 50", b.DoneAt)
	}
	if s.FreeMachines() != 2 {
		t.Fatalf("free machines = %d, want 2 (sibling killed)", s.FreeMachines())
	}
	if b.Tasks[0].Failures != 0 {
		t.Fatal("sibling kill must not count as failure")
	}
}

func TestUnlimitedReplicationFCFSExcl(t *testing.T) {
	eng, _, s := fixture(t, []float64{10, 10, 10, 10, 10}, FCFSExcl, defaultSC(), grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000})
	// FCFS-Excl keeps every machine busy with replicas of the last task.
	if got := b.RunningReplicas(); got != 5 {
		t.Fatalf("running replicas = %d, want 5 (unlimited threshold)", got)
	}
	if s.FreeMachines() != 0 {
		t.Fatalf("free machines = %d, want 0", s.FreeMachines())
	}
	eng.Run()
	if b.DoneAt != 100 {
		t.Fatalf("DoneAt = %v, want 100", b.DoneAt)
	}
}

// submitAt schedules a bag submission at an absolute time.
func submitAt(eng *des.Engine, s *Scheduler, at, gran float64, works []float64, out **Bag) {
	eng.ScheduleAt(at, func(*des.Engine) {
		b := s.Submit(gran, works)
		if out != nil {
			*out = b
		}
	})
}

func TestFCFSExclStarvesYoungerBag(t *testing.T) {
	eng, _, s := fixture(t, []float64{10, 10, 10}, FCFSExcl, defaultSC(), grid.AlwaysUp, 0)
	var a, b *Bag
	submitAt(eng, s, 0, 1000, []float64{1000}, &a)
	submitAt(eng, s, 1, 1000, []float64{1000}, &b)
	eng.Run()
	if a.DoneAt != 100 {
		t.Fatalf("bag A DoneAt = %v, want 100", a.DoneAt)
	}
	// B waits for A despite a dedicated machine being mathematically free:
	// FCFS-Excl gave all three machines to A.
	if b.FirstStart != 100 {
		t.Fatalf("bag B FirstStart = %v, want 100 (exclusive allocation)", b.FirstStart)
	}
	if b.DoneAt != 200 {
		t.Fatalf("bag B DoneAt = %v, want 200", b.DoneAt)
	}
}

func TestFCFSShareSharesSpareMachines(t *testing.T) {
	eng, _, s := fixture(t, []float64{10, 10, 10}, FCFSShare, defaultSC(), grid.AlwaysUp, 0)
	var a, b *Bag
	submitAt(eng, s, 0, 1000, []float64{1000}, &a)
	submitAt(eng, s, 1, 1000, []float64{1000}, &b)
	eng.Run()
	// A holds two machines (task + replica, threshold 2); the third goes
	// to B on arrival.
	if b.FirstStart != 1 {
		t.Fatalf("bag B FirstStart = %v, want 1 (shared allocation)", b.FirstStart)
	}
	if b.DoneAt != 101 {
		t.Fatalf("bag B DoneAt = %v, want 101", b.DoneAt)
	}
	if a.DoneAt != 100 {
		t.Fatalf("bag A DoneAt = %v, want 100", a.DoneAt)
	}
}

func TestFCFSShareOlderPendingFirst(t *testing.T) {
	// One machine; two bags with one task each. The machine serves bag A,
	// then bag B, in arrival order.
	eng, _, s := fixture(t, []float64{10}, FCFSShare, defaultSC(), grid.AlwaysUp, 0)
	var a, b *Bag
	submitAt(eng, s, 0, 1000, []float64{1000}, &a)
	submitAt(eng, s, 1, 1000, []float64{500}, &b)
	eng.Run()
	if a.DoneAt != 100 || b.FirstStart != 100 {
		t.Fatalf("A done %v / B start %v, want 100/100", a.DoneAt, b.FirstStart)
	}
}

// stallThenSubmitTwo fails every machine before two bags arrive and then
// repairs the machines one by one, so that each repair triggers exactly one
// bag-selection decision. It returns the two bags' replica counts at t=4.
func stallThenSubmitTwo(t *testing.T, kind PolicyKind, worksA, worksB []float64, threshold int) (aRun, bRun int) {
	t.Helper()
	eng, g, s := fixture(t, []float64{10, 10, 10, 10}, kind, SchedConfig{Threshold: threshold}, grid.AlwaysUp, 0)
	eng.ScheduleAt(0, func(*des.Engine) {
		for _, m := range g.Machines {
			m.ForceFail(0)
			s.MachineFailed(m)
		}
	})
	var a, b *Bag
	submitAt(eng, s, 1, 1000, worksA, &a)
	submitAt(eng, s, 2, 1000, worksB, &b)
	eng.ScheduleAt(3, func(*des.Engine) {
		for _, m := range g.Machines {
			m.ForceRepair(3)
			s.MachineRepaired(m)
		}
	})
	eng.RunUntil(4)
	return a.RunningReplicas(), b.RunningReplicas()
}

func TestRRAlternatesBags(t *testing.T) {
	works := []float64{1000, 1000, 1000, 1000, 1000, 1000}
	// Each repair event dispatches one machine; RR alternates A,B,A,B.
	aRun, bRun := stallThenSubmitTwo(t, RR, works, works, 2)
	if aRun != 2 || bRun != 2 {
		t.Fatalf("RR should alternate: A=%d B=%d replicas, want 2/2", aRun, bRun)
	}
}

func TestFCFSShareDoesNotAlternate(t *testing.T) {
	works := []float64{1000, 1000, 1000, 1000, 1000, 1000}
	aRun, bRun := stallThenSubmitTwo(t, FCFSShare, works, works, 2)
	if aRun != 4 || bRun != 0 {
		t.Fatalf("FCFS-Share should give all machines to A: A=%d B=%d", aRun, bRun)
	}
}

func TestFCFSShareReplicatesOldBagBeforeYoungPending(t *testing.T) {
	// Strict FCFS priority (§4.3: "FCFS-based strategies use the exceeding
	// machines to create many replicas for the tasks of the same BoT (the
	// oldest one)"): with threshold 2, bag A's replication outranks bag
	// B's never-run task.
	aRun, bRun := stallThenSubmitTwo(t, FCFSShare, []float64{1000, 1000}, []float64{1000}, 2)
	if aRun != 4 || bRun != 0 {
		t.Fatalf("FCFS-Share should saturate A first: A=%d B=%d, want 4/0", aRun, bRun)
	}
	// LongIdle, by contrast, serves B's waiting task before replicating A.
	aRun, bRun = stallThenSubmitTwo(t, LongIdle, []float64{1000, 1000}, []float64{1000}, 2)
	if bRun == 0 {
		t.Fatalf("LongIdle should serve B's pending task: A=%d B=%d", aRun, bRun)
	}
}

func TestRRNRFServesStarvedBagFirst(t *testing.T) {
	// Bags A and B run one task each on the two machines, leaving the RR
	// cursor on B; bag C arrives later and waits. A's machine fails, so
	// both A and C are starved. When B's task completes, plain RR serves
	// C (next in circular order after B); RR-NRF suspends the rotation
	// and serves the oldest starved bag, A.
	run := func(kind PolicyKind) (aRun, cRun int) {
		sc := SchedConfig{Threshold: 1}
		eng, g, s := fixture(t, []float64{10, 10}, kind, sc, grid.AlwaysUp, 0)
		eng.ScheduleAt(0, func(*des.Engine) {
			for _, m := range g.Machines {
				m.ForceFail(0)
				s.MachineFailed(m)
			}
		})
		var a, b, c *Bag
		submitAt(eng, s, 1, 1000, []float64{2000}, &a)
		submitAt(eng, s, 2, 1000, []float64{1000}, &b)
		eng.ScheduleAt(3, func(*des.Engine) {
			for _, m := range g.Machines {
				m.ForceRepair(3)
				s.MachineRepaired(m)
			}
		})
		submitAt(eng, s, 4, 1000, []float64{2000}, &c)
		eng.ScheduleAt(10, func(*des.Engine) {
			if len(a.Tasks[0].Replicas) != 1 {
				t.Error("bag A has no running replica to fail")
				return
			}
			m := a.Tasks[0].Replicas[0].Machine
			m.ForceFail(eng.Now())
			s.MachineFailed(m)
		})
		eng.RunUntil(150) // B's task completes at t=103
		if !b.Complete() {
			t.Error("bag B should have completed")
		}
		return a.RunningReplicas(), c.RunningReplicas()
	}
	if aRun, cRun := run(RRNRF); aRun != 1 || cRun != 0 {
		t.Fatalf("RR-NRF: starved A should run (A=%d C=%d, want 1/0)", aRun, cRun)
	}
	if aRun, cRun := run(RR); aRun != 0 || cRun != 1 {
		t.Fatalf("RR: circular order should serve C (A=%d C=%d, want 0/1)", aRun, cRun)
	}
}

func TestLongIdlePicksLongestWaitingTask(t *testing.T) {
	// Machine 2 is down from the start. A (t=0) runs on machine 1; B
	// (t=1) waits. At t=100 machine 1 fails, so A's task becomes pending
	// (idle since 100) while B's task has been idle since t=1. When
	// machine 2 repairs at t=110, LongIdle must pick B; FCFS-Share would
	// pick the older A.
	run := func(kind PolicyKind) (aRun, bRun int) {
		sc := SchedConfig{Threshold: 1}
		eng, g, s := fixture(t, []float64{10, 10}, kind, sc, grid.AlwaysUp, 0)
		m2 := g.Machines[1]
		eng.ScheduleAt(0, func(*des.Engine) {
			m2.ForceFail(0)
			s.MachineFailed(m2)
		})
		var a, b *Bag
		submitAt(eng, s, 0, 10000, []float64{10000}, &a)
		submitAt(eng, s, 1, 10000, []float64{10000}, &b)
		eng.ScheduleAt(100, func(*des.Engine) {
			m1 := g.Machines[0]
			m1.ForceFail(100)
			s.MachineFailed(m1)
		})
		eng.ScheduleAt(110, func(*des.Engine) {
			m2.ForceRepair(110)
			s.MachineRepaired(m2)
		})
		eng.RunUntil(111)
		return a.RunningReplicas(), b.RunningReplicas()
	}
	if _, bRun := run(LongIdle); bRun != 1 {
		t.Fatalf("LongIdle: B (idle 109s) should run, has %d replicas", bRun)
	}
	if aRun, _ := run(FCFSShare); aRun != 1 {
		t.Fatalf("FCFS-Share: older bag A should run, has %d replicas", aRun)
	}
}

func TestFailedTaskResubmittedWithPriority(t *testing.T) {
	// One machine, bag with two tasks, threshold 1. Task 0 runs, fails at
	// t=50: it must re-enter at the queue front and restart before task 1.
	eng, g, s := fixture(t, []float64{10}, FCFSShare, SchedConfig{Threshold: 1}, grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000, 1000})
	m := g.Machines[0]
	eng.ScheduleAt(50, func(*des.Engine) {
		m.ForceFail(50)
		s.MachineFailed(m)
	})
	eng.ScheduleAt(60, func(*des.Engine) {
		m.ForceRepair(60)
		s.MachineRepaired(m)
	})
	eng.Run()
	t0, t1 := b.Tasks[0], b.Tasks[1]
	if t0.Failures != 1 {
		t.Fatalf("task 0 failures = %d, want 1", t0.Failures)
	}
	// Task 0 restarts from scratch at 60 (no checkpoint), done at 160;
	// task 1 runs 160..260.
	if t0.DoneAt != 160 {
		t.Fatalf("task 0 DoneAt = %v, want 160", t0.DoneAt)
	}
	if t1.FirstStart != 160 || t1.DoneAt != 260 {
		t.Fatalf("task 1 start/done = %v/%v, want 160/260", t1.FirstStart, t1.DoneAt)
	}
	if b.DoneAt != 260 {
		t.Fatalf("bag DoneAt = %v, want 260", b.DoneAt)
	}
}

func TestCheckpointCadenceExact(t *testing.T) {
	// LowAvail MTBF=1800, cost=100 → Young interval sqrt(2·100·1800)=600.
	// Work 60000 on power 10 = 6000 s compute → 9 saves of 100 s each:
	// total 6900 s.
	saves := 0
	obs := &funcObserver{ckpt: func() { saves++ }}
	eng := des.New()
	g := grid.NewCustom(grid.DefaultConfig(grid.Hom, grid.LowAvail), []float64{10})
	ck := checkpoint.NewServer(checkpoint.Config{Enabled: true, TransferLo: 100, TransferHi: 100}, rng.New(1))
	s := NewScheduler(eng, g, ck, NewPolicy(FCFSShare, nil), SchedConfig{Threshold: 1}, obs)
	if got := s.ckptInterval; math.Abs(got-600) > 1e-9 {
		t.Fatalf("checkpoint interval = %v, want 600", got)
	}
	b := s.Submit(60000, []float64{60000})
	eng.Run()
	if b.DoneAt != 6900 {
		t.Fatalf("DoneAt = %v, want 6900 (9 checkpoints à 100 s)", b.DoneAt)
	}
	if saves != 9 {
		t.Fatalf("checkpoint saves = %d, want 9", saves)
	}
	if b.Tasks[0].Checkpointed != 54000 {
		t.Fatalf("checkpointed work = %v, want 54000", b.Tasks[0].Checkpointed)
	}
}

func TestFailureDuringSaveLosesCheckpoint(t *testing.T) {
	// Interval 600, save at 600..700. Failing at 650 interrupts the save:
	// the task restarts from scratch.
	eng, g, s := ckptFixture(t)
	b := s.Submit(60000, []float64{60000})
	m := g.Machines[0]
	eng.ScheduleAt(650, func(*des.Engine) {
		m.ForceFail(650)
		s.MachineFailed(m)
	})
	eng.ScheduleAt(700, func(*des.Engine) {
		m.ForceRepair(700)
		s.MachineRepaired(m)
	})
	eng.Run()
	// Restart at 700 with no checkpoint: full 6900 s again → done 7600.
	if b.DoneAt != 7600 {
		t.Fatalf("DoneAt = %v, want 7600", b.DoneAt)
	}
}

func TestFailureAfterSaveResumesFromCheckpoint(t *testing.T) {
	// First save completes at 700 (progress 6000). Failing at 750 and
	// repairing at 800 restarts with a 100 s retrieve, then 54000 ref-s
	// remain: 8 saves + 5400 s compute → done at 800+100+8·700+600 = 7100.
	eng, g, s := ckptFixture(t)
	b := s.Submit(60000, []float64{60000})
	m := g.Machines[0]
	eng.ScheduleAt(750, func(*des.Engine) {
		m.ForceFail(750)
		s.MachineFailed(m)
	})
	eng.ScheduleAt(800, func(*des.Engine) {
		m.ForceRepair(800)
		s.MachineRepaired(m)
	})
	eng.Run()
	if b.Tasks[0].Failures != 1 {
		t.Fatalf("failures = %d, want 1", b.Tasks[0].Failures)
	}
	if b.DoneAt != 7100 {
		t.Fatalf("DoneAt = %v, want 7100 (resumed from checkpoint)", b.DoneAt)
	}
	if _, retrieves := retrieveStats(s); retrieves != 1 {
		t.Fatalf("retrieves = %d, want 1", retrieves)
	}
}

// ckptFixture is the shared single-machine checkpointing scenario.
func ckptFixture(t *testing.T) (*des.Engine, *grid.Grid, *Scheduler) {
	t.Helper()
	eng := des.New()
	g := grid.NewCustom(grid.DefaultConfig(grid.Hom, grid.LowAvail), []float64{10})
	ck := checkpoint.NewServer(checkpoint.Config{Enabled: true, TransferLo: 100, TransferHi: 100}, rng.New(1))
	s := NewScheduler(eng, g, ck, NewPolicy(FCFSShare, nil), SchedConfig{Threshold: 1}, nil)
	return eng, g, s
}

func retrieveStats(s *Scheduler) (saves, retrieves int) { return s.ckpt.Stats() }

// funcObserver adapts closures to Observer for tests.
type funcObserver struct {
	NopObserver
	ckpt func()
}

func (f *funcObserver) CheckpointSaved(float64, *Task, float64) {
	if f.ckpt != nil {
		f.ckpt()
	}
}

func TestSuspendResumeKeepsProgress(t *testing.T) {
	// One machine, suspend semantics, no checkpoints. Work 1000 on power
	// 10 → 100 s. Fail at t=40 (40% done), repair at t=100: the replica
	// resumes its remaining 60 s locally and completes at exactly 160,
	// whereas kill-and-restart would finish at 200.
	sc := SchedConfig{Threshold: 1, SuspendOnFailure: true}
	eng, g, s := fixture(t, []float64{10}, FCFSShare, sc, grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000})
	m := g.Machines[0]
	eng.ScheduleAt(40, func(*des.Engine) {
		m.ForceFail(40)
		s.MachineFailed(m)
	})
	eng.ScheduleAt(100, func(*des.Engine) {
		m.ForceRepair(100)
		s.MachineRepaired(m)
	})
	eng.Run()
	if b.DoneAt != 160 {
		t.Fatalf("DoneAt = %v, want 160 (progress preserved)", b.DoneAt)
	}
	if s.Suspensions() != 1 {
		t.Fatalf("suspensions = %d, want 1", s.Suspensions())
	}
	if s.ReplicaFailures() != 0 {
		t.Fatal("suspension must not count as a replica failure")
	}
	if b.Tasks[0].Failures != 0 {
		t.Fatal("suspension must not count as a task failure")
	}
}

func TestKillSemanticsRestartsFromScratch(t *testing.T) {
	// The same scenario with the paper's kill semantics loses the 40 s.
	sc := SchedConfig{Threshold: 1}
	eng, g, s := fixture(t, []float64{10}, FCFSShare, sc, grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000})
	m := g.Machines[0]
	eng.ScheduleAt(40, func(*des.Engine) {
		m.ForceFail(40)
		s.MachineFailed(m)
	})
	eng.ScheduleAt(100, func(*des.Engine) {
		m.ForceRepair(100)
		s.MachineRepaired(m)
	})
	eng.Run()
	if b.DoneAt != 200 {
		t.Fatalf("DoneAt = %v, want 200 (restart from scratch)", b.DoneAt)
	}
}

func TestSuspendedTaskStillReplicable(t *testing.T) {
	// Suspended sole replica: WQR-FT may start a second replica on
	// another machine, which wins while the first sleeps.
	sc := SchedConfig{Threshold: 2, SuspendOnFailure: true}
	eng, g, s := fixture(t, []float64{10, 10}, FCFSShare, sc, grid.AlwaysUp, 0)
	// Occupy machine 1 so the task starts with one replica only.
	eng.ScheduleAt(0, func(*des.Engine) {
		m1 := g.Machines[1]
		m1.ForceFail(0)
		s.MachineFailed(m1)
	})
	var b *Bag
	submitAt(eng, s, 1, 1000, []float64{1000}, &b)
	eng.ScheduleAt(10, func(*des.Engine) {
		m0 := g.Machines[0]
		m0.ForceFail(10)
		s.MachineFailed(m0) // suspends the only replica
	})
	eng.ScheduleAt(20, func(*des.Engine) {
		m1 := g.Machines[1]
		m1.ForceRepair(20)
		s.MachineRepaired(m1) // free machine → replication of the task
	})
	eng.RunUntil(500)
	// The fresh replica started at 20 and finishes at 120 while machine 0
	// never repaired: completion via the replica, task done.
	if !b.Complete() || b.DoneAt != 120 {
		t.Fatalf("DoneAt = %v (complete=%v), want 120 via second replica",
			b.DoneAt, b.Complete())
	}
	// Machine 0 repairs later: it must return to the free pool (its
	// suspended replica was killed by the completion).
	m0 := g.Machines[0]
	m0.ForceRepair(500)
	s.MachineRepaired(m0)
	if s.FreeMachines() != 2 {
		t.Fatalf("free machines = %d, want 2", s.FreeMachines())
	}
	s.CheckInvariants()
}

func TestSuspendDuringSaveRedoesTransfer(t *testing.T) {
	// Interval 600, save 100 s (600..700). Fail at 650 mid-save and
	// repair at 1000: the save restarts at 1000 and completes at 1100,
	// then computing resumes. Total: 1000 + 100 (redo save) + 5400
	// remaining compute + 8 more saves à 100 = 7300.
	eng := des.New()
	g := grid.NewCustom(grid.DefaultConfig(grid.Hom, grid.LowAvail), []float64{10})
	ck := checkpoint.NewServer(checkpoint.Config{Enabled: true, TransferLo: 100, TransferHi: 100}, rng.New(1))
	sc := SchedConfig{Threshold: 1, SuspendOnFailure: true}
	s := NewScheduler(eng, g, ck, NewPolicy(FCFSShare, nil), sc, nil)
	b := s.Submit(60000, []float64{60000})
	m := g.Machines[0]
	eng.ScheduleAt(650, func(*des.Engine) {
		m.ForceFail(650)
		s.MachineFailed(m)
	})
	eng.ScheduleAt(1000, func(*des.Engine) {
		m.ForceRepair(1000)
		s.MachineRepaired(m)
	})
	eng.Run()
	if b.DoneAt != 7300 {
		t.Fatalf("DoneAt = %v, want 7300", b.DoneAt)
	}
	if b.Tasks[0].Checkpointed != 54000 {
		t.Fatalf("checkpointed = %v, want 54000", b.Tasks[0].Checkpointed)
	}
}

func TestCheckpointServerContention(t *testing.T) {
	// Capacity-1 server, two replicas hitting their Young interval at the
	// same instant: the save transfers must serialize (completions at 700
	// and 800 instead of both at 700).
	var saved []float64
	eng := des.New()
	g := grid.NewCustom(grid.DefaultConfig(grid.Hom, grid.LowAvail), []float64{10, 10})
	ck := checkpoint.NewServer(checkpoint.Config{
		Enabled: true, TransferLo: 100, TransferHi: 100, Capacity: 1,
	}, rng.New(1))
	obs := &saveTimes{times: &saved}
	s := NewScheduler(eng, g, ck, NewPolicy(FCFSShare, nil), SchedConfig{Threshold: 1}, obs)
	s.Submit(60000, []float64{60000, 60000})
	eng.RunUntil(1000)
	if len(saved) != 2 || saved[0] != 700 || saved[1] != 800 {
		t.Fatalf("save completions = %v, want [700 800]", saved)
	}
	// The same scenario with unlimited capacity completes both at 700.
	var saved2 []float64
	eng2 := des.New()
	g2 := grid.NewCustom(grid.DefaultConfig(grid.Hom, grid.LowAvail), []float64{10, 10})
	ck2 := checkpoint.NewServer(checkpoint.Config{
		Enabled: true, TransferLo: 100, TransferHi: 100,
	}, rng.New(1))
	s2 := NewScheduler(eng2, g2, ck2, NewPolicy(FCFSShare, nil), SchedConfig{Threshold: 1}, &saveTimes{times: &saved2})
	s2.Submit(60000, []float64{60000, 60000})
	eng2.RunUntil(1000)
	if len(saved2) != 2 || saved2[0] != 700 || saved2[1] != 700 {
		t.Fatalf("uncontended save completions = %v, want [700 700]", saved2)
	}
}

type saveTimes struct {
	NopObserver
	times *[]float64
}

func (s *saveTimes) CheckpointSaved(now float64, _ *Task, _ float64) {
	*s.times = append(*s.times, now)
}

func TestWaitingMakespanTurnaroundIdentity(t *testing.T) {
	eng, _, s := fixture(t, []float64{10}, FCFSShare, SchedConfig{Threshold: 1}, grid.AlwaysUp, 0)
	var a, b *Bag
	submitAt(eng, s, 5, 1000, []float64{1000}, &a)
	submitAt(eng, s, 6, 1000, []float64{1000}, &b)
	eng.Run()
	// B waits 105-6=99, runs 100 → turnaround 199.
	st := b.Stats(10, 10)
	if st.Waiting != 99 || st.Makespan != 100 || st.Turnaround != 199 {
		t.Fatalf("waiting/makespan/turnaround = %v/%v/%v, want 99/100/199",
			st.Waiting, st.Makespan, st.Turnaround)
	}
	if st.Turnaround != st.Waiting+st.Makespan {
		t.Fatal("turnaround identity violated")
	}
}

func TestDynamicReplicationSuppressesReplicas(t *testing.T) {
	// Two machines, two bags with one task each arriving together, and a
	// third pending task in bag B. Static threshold 2 would replicate;
	// dynamic replication must not while pending work exists.
	sc := SchedConfig{Threshold: 2, DynamicReplication: true}
	eng, _, s := fixture(t, []float64{10, 10}, RR, sc, grid.AlwaysUp, 0)
	a := s.Submit(1000, []float64{1000, 1000, 1000})
	if a.RunningReplicas() != 2 {
		t.Fatalf("running = %d, want 2 (one per machine, no replicas)", a.RunningReplicas())
	}
	for _, task := range a.Tasks {
		if len(task.Replicas) > 1 {
			t.Fatal("dynamic replication must not replicate while tasks pend")
		}
	}
	eng.Run()
	if !a.Complete() {
		t.Fatal("bag did not complete")
	}
}

func TestDynamicReplicationAllowsReplicasWhenIdle(t *testing.T) {
	sc := SchedConfig{Threshold: 2, DynamicReplication: true}
	_, _, s := fixture(t, []float64{10, 10, 10}, RR, sc, grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000})
	// No pending tasks remain after the first dispatch, so the spare
	// machines may replicate up to the threshold.
	if b.RunningReplicas() != 2 {
		t.Fatalf("running replicas = %d, want 2", b.RunningReplicas())
	}
}

func TestFastestMachineFirst(t *testing.T) {
	sc := SchedConfig{Threshold: 1, FastestMachineFirst: true}
	eng, g, s := fixture(t, []float64{5, 20, 10}, FCFSShare, sc, grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000})
	r := b.Tasks[0].Replicas[0]
	if r.Machine != g.Machines[1] {
		t.Fatalf("dispatched to power %v, want fastest (20)", r.Machine.Power)
	}
	eng.Run()
	if b.DoneAt != 50 {
		t.Fatalf("DoneAt = %v, want 50", b.DoneAt)
	}
}

func TestSJFKBPrefersShortBag(t *testing.T) {
	eng, _, s := fixture(t, []float64{10}, SJFKB, SchedConfig{Threshold: 1}, grid.AlwaysUp, 0)
	var long, short *Bag
	submitAt(eng, s, 0, 1000, []float64{5000, 5000}, &long)
	// Long bag occupies the machine; at its first completion the short
	// bag (less remaining work) must be chosen despite arriving later.
	submitAt(eng, s, 1, 1000, []float64{1000}, &short)
	eng.Run()
	if short.FirstStart != 500 {
		t.Fatalf("short bag FirstStart = %v, want 500 (SJF preemption at completion)", short.FirstStart)
	}
}

func TestFairShareBalancesReplicas(t *testing.T) {
	// A has two tasks, B one; with threshold 4 FairShare interleaves so
	// both bags end up holding two machines (B's task gets a replica).
	aRun, bRun := stallThenSubmitTwo(t, FairShare, []float64{1000, 1000}, []float64{1000}, 4)
	if aRun != 2 || bRun != 2 {
		t.Fatalf("replicas A=%d B=%d, want 2/2 (balanced)", aRun, bRun)
	}
}

func TestRandomPolicyCompletesEverything(t *testing.T) {
	eng, _, s := fixture(t, []float64{10, 10, 10}, Random, defaultSC(), grid.AlwaysUp, 0)
	for i := 0; i < 5; i++ {
		submitAt(eng, s, float64(i), 1000, []float64{1000, 1000, 1000}, nil)
	}
	eng.Run()
	if s.Completed() != 5 {
		t.Fatalf("completed = %d, want 5", s.Completed())
	}
	s.CheckInvariants()
}

func TestInvariantsUnderChaos(t *testing.T) {
	// Full random availability churn with invariants checked after every
	// event, and the indexed policies' selections checked against the
	// linear scans of the rules they implement.
	for _, kind := range Kinds {
		for _, suspend := range []bool{false, true} {
			t.Run(chaosName(kind, suspend), func(t *testing.T) {
				chaos(t, kind, 3, suspend, false, 8, 5000)
			})
		}
	}
}

// TestInvariantsUnderChaosRecycled is TestInvariantsUnderChaos on a
// recycling scheduler, with arrivals spread out far enough that completed
// bags' storage backs later submissions.
func TestInvariantsUnderChaosRecycled(t *testing.T) {
	for _, kind := range Kinds {
		for _, suspend := range []bool{false, true} {
			t.Run(chaosName(kind, suspend), func(t *testing.T) {
				reused := chaos(t, kind, 3, suspend, true, 24, 5e4)
				t.Logf("%d of 24 submissions reused storage", reused)
				if reused == 0 {
					t.Fatal("no submission reused a completed bag's storage")
				}
			})
		}
	}
}

// FuzzIndexVsScan is the chaos driver with the fuzzer choosing the
// seeds, the policy, the bag count, the arrival spread, suspension and
// recycling: the scheduler's invariants, and every indexed policy's
// selection against the linear scan of its rule, are checked after every
// event.
func FuzzIndexVsScan(f *testing.F) {
	f.Add(uint64(3), uint8(LongIdle), false, false, uint8(8), 5000.0)
	f.Add(uint64(3), uint8(FairShare), true, true, uint8(24), 5e4)
	f.Add(uint64(11), uint8(SJFKB), false, true, uint8(16), 2e4)
	f.Add(uint64(40), uint8(FCFSShare), true, false, uint8(3), 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, kind uint8, suspend, recycle bool, bags uint8, spread float64) {
		spread = math.Mod(math.Abs(spread), 1e5) // bound the simulated time
		if math.IsNaN(spread) {
			spread = 0
		}
		chaos(t, Kinds[int(kind)%len(Kinds)], seed, suspend, recycle, 1+int(bags)%24, spread)
	})
}

func chaosName(kind PolicyKind, suspend bool) string {
	if suspend {
		return kind.String() + "/suspend"
	}
	return kind.String()
}

// chaos submits bags of random tasks at uniform times in [0, spread) to a
// 10-machine LowAvail grid under full availability churn, and checks the
// scheduler's invariants and index after every event until all bags
// complete. Its five random streams (grid, checkpoint server, policy,
// availability, workload) are seeded seed to seed+4. It returns how many
// submissions got storage a completed bag had used before.
func chaos(t *testing.T, kind PolicyKind, seed uint64, suspend, recycle bool, bags int, spread float64) (reused int) {
	t.Helper()
	gcfg := grid.DefaultConfig(grid.Hom, grid.LowAvail)
	gcfg.TotalPower = 100 // 10 machines
	eng := des.New()
	g := grid.Build(gcfg, rng.New(seed))
	ck := checkpoint.NewServer(checkpoint.DefaultConfig(), rng.New(seed+1))
	sc := defaultSC()
	sc.SuspendOnFailure = suspend
	s := NewScheduler(eng, g, ck, NewPolicy(kind, rng.New(seed+2)), sc, nil)
	s.recycle = recycle
	g.Start(eng, rng.New(seed+3), s)
	seen := map[*Bag]bool{}
	works := rng.New(seed + 4)
	for i := 0; i < bags; i++ {
		tasks := make([]float64, 5+works.IntN(10))
		for j := range tasks {
			tasks[j] = works.Uniform(500, 20000)
		}
		eng.ScheduleAt(works.Uniform(0, spread), func(*des.Engine) {
			b := s.Submit(1000, tasks)
			if seen[b] {
				reused++
			}
			seen[b] = true
		})
	}
	steps := 0
	for eng.Step() {
		steps++
		s.CheckInvariants()
		checkIndex(t, kind, s)
		if s.Completed() == bags {
			break
		}
		if eng.Now() > 5e6 {
			t.Fatalf("workload did not drain by t=5e6 (completed %d/%d)", s.Completed(), bags)
		}
	}
	if s.Completed() != bags {
		t.Fatalf("completed %d/%d bags after %d steps", s.Completed(), bags, steps)
	}
	return reused
}

func TestSubmitEmptyBagPanics(t *testing.T) {
	_, _, s := fixture(t, []float64{10}, FCFSShare, defaultSC(), grid.AlwaysUp, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Submit(1000, nil)
}

func TestInvalidThresholdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fixture(t, []float64{10}, FCFSShare, SchedConfig{Threshold: 0}, grid.AlwaysUp, 0)
}

func TestAllMachinesDownQueuesEverything(t *testing.T) {
	eng, g, s := fixture(t, []float64{10, 10}, FCFSShare, defaultSC(), grid.AlwaysUp, 0)
	eng.ScheduleAt(0, func(*des.Engine) {
		for _, m := range g.Machines {
			m.ForceFail(0)
			s.MachineFailed(m)
		}
	})
	var b *Bag
	submitAt(eng, s, 1, 1000, []float64{1000, 1000}, &b)
	eng.RunUntil(50)
	if b.RunningReplicas() != 0 || b.PendingCount() != 2 {
		t.Fatalf("running=%d pending=%d, want 0/2 with no machines",
			b.RunningReplicas(), b.PendingCount())
	}
	if s.FreeMachines() != 0 {
		t.Fatal("no machine should be free")
	}
	// Repairs drain the queue.
	for _, m := range g.Machines {
		m.ForceRepair(50)
		s.MachineRepaired(m)
	}
	eng.Run()
	if !b.Complete() {
		t.Fatal("bag did not complete after repairs")
	}
	s.CheckInvariants()
}

func TestRepeatedFailuresAccumulateIdleTime(t *testing.T) {
	// One machine; the task fails twice with 10 s outages. Its idle time
	// must accumulate across both stretches plus the initial wait.
	eng, g, s := fixture(t, []float64{10}, FCFSShare, SchedConfig{Threshold: 1}, grid.AlwaysUp, 0)
	b := s.Submit(1000, []float64{1000})
	m := g.Machines[0]
	for _, at := range []float64{30, 80} {
		at := at
		eng.ScheduleAt(at, func(*des.Engine) {
			m.ForceFail(at)
			s.MachineFailed(m)
		})
		eng.ScheduleAt(at+10, func(*des.Engine) {
			m.ForceRepair(at + 10)
			s.MachineRepaired(m)
		})
	}
	eng.Run()
	task := b.Tasks[0]
	if task.Failures != 2 {
		t.Fatalf("failures = %d, want 2", task.Failures)
	}
	// Idle stretches: [30,40] and [80,90] → 20 s total (started at 0).
	if got := task.IdleTime(eng.Now()); got != 20 {
		t.Fatalf("IdleTime = %v, want 20", got)
	}
	// Restarted from scratch twice: done at 90 + 100 = 190.
	if task.DoneAt != 190 {
		t.Fatalf("DoneAt = %v, want 190", task.DoneAt)
	}
}

func TestFCFSExclSurvivesExclusiveBagFailure(t *testing.T) {
	// FCFS-Excl with the exclusive bag losing machines: the bag keeps its
	// claim, resubmissions go first, and the next bag starts only after
	// completion.
	eng, g, s := fixture(t, []float64{10, 10}, FCFSExcl, defaultSC(), grid.AlwaysUp, 0)
	var a, b *Bag
	submitAt(eng, s, 0, 1000, []float64{1000}, &a)
	submitAt(eng, s, 1, 1000, []float64{1000}, &b)
	eng.ScheduleAt(20, func(*des.Engine) {
		// Fail both machines: A's two replicas both die.
		for _, m := range g.Machines {
			m.ForceFail(20)
			s.MachineFailed(m)
		}
	})
	eng.ScheduleAt(30, func(*des.Engine) {
		for _, m := range g.Machines {
			m.ForceRepair(30)
			s.MachineRepaired(m)
		}
	})
	eng.Run()
	// A restarts at 30, completes at 130 (both machines replicate it);
	// B runs 130..230.
	if a.DoneAt != 130 {
		t.Fatalf("bag A DoneAt = %v, want 130", a.DoneAt)
	}
	if b.FirstStart != 130 || b.DoneAt != 230 {
		t.Fatalf("bag B start/done = %v/%v, want 130/230", b.FirstStart, b.DoneAt)
	}
}

func TestTaskOrder(t *testing.T) {
	works := []float64{300, 100, 200}
	cases := []struct {
		order TaskOrder
		want  []float64
	}{
		{ArbitraryOrder, []float64{300, 100, 200}},
		{LongestFirst, []float64{300, 200, 100}},
		{ShortestFirst, []float64{100, 200, 300}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.order.String(), func(t *testing.T) {
			sc := SchedConfig{Threshold: 1, TaskOrder: c.order}
			eng, _, s := fixture(t, []float64{10}, FCFSShare, sc, grid.AlwaysUp, 0)
			b := s.Submit(1000, works)
			for i, w := range c.want {
				if b.Tasks[i].Work != w {
					t.Fatalf("task %d work = %v, want %v", i, b.Tasks[i].Work, w)
				}
			}
			eng.Run()
			// With one machine, tasks complete in queue order.
			var prev float64
			for i, task := range b.Tasks {
				if task.DoneAt <= prev {
					t.Fatalf("task %d completed out of order", i)
				}
				prev = task.DoneAt
			}
		})
	}
}

func TestTaskOrderStrings(t *testing.T) {
	if ArbitraryOrder.String() != "arbitrary" ||
		LongestFirst.String() != "longest-first" ||
		ShortestFirst.String() != "shortest-first" {
		t.Fatal("task order names wrong")
	}
}

func TestIdleTimeAccounting(t *testing.T) {
	// One machine, threshold 1, two single-task bags: B's task idles from
	// arrival (t=1) until start (t=100).
	eng, _, s := fixture(t, []float64{10}, FCFSShare, SchedConfig{Threshold: 1}, grid.AlwaysUp, 0)
	var b *Bag
	submitAt(eng, s, 0, 1000, []float64{1000}, nil)
	submitAt(eng, s, 1, 1000, []float64{1000}, &b)
	eng.ScheduleAt(50, func(*des.Engine) {
		if got := b.Tasks[0].IdleTime(50); got != 49 {
			t.Fatalf("IdleTime(50) = %v, want 49", got)
		}
	})
	eng.Run()
	if got := b.Tasks[0].IdleTime(1000); got != 99 {
		t.Fatalf("final IdleTime = %v, want 99", got)
	}
}

// TestRemoveBag removes bags at the front, in the middle and at the back of
// the active list: the others keep their ID order, no slot of the backing
// array outside the list still references a bag, and removing a bag twice
// panics.
func TestRemoveBag(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remove []int
	}{
		{"front", []int{0, 1}},
		{"middle", []int{3, 2, 4}},
		{"back", []int{6, 5}},
		{"mixed", []int{3, 0, 6, 1, 5, 2, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all := make([]*Bag, 7)
			for i := range all {
				all[i] = newBag(i, float64(i), 1000, []float64{100})
			}
			backing := append([]*Bag(nil), all...)
			s := &Scheduler{bags: backing}
			gone := make(map[int]bool)
			for _, id := range tc.remove {
				s.removeBag(all[id])
				gone[id] = true
				var want []int
				for i := range all {
					if !gone[i] {
						want = append(want, i)
					}
				}
				var got []int
				for _, b := range s.bags {
					got = append(got, b.ID)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("after removing %d: bags %v, want %v", id, got, want)
				}
				held := 0
				for _, b := range backing {
					if b != nil {
						held++
					}
				}
				if held != len(s.bags) {
					t.Fatalf("after removing %d: the backing array holds %d bags, the list %d", id, held, len(s.bags))
				}
			}
			defer func() {
				if recover() == nil {
					t.Fatal("removing a removed bag did not panic")
				}
			}()
			s.removeBag(all[tc.remove[0]])
		})
	}
}
