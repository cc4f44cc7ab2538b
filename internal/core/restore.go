package core

import (
	"fmt"
	"math"

	"botgrid/internal/grid"
)

// This file implements durable capture and reconstruction of a live-mode
// scheduler: SnapshotState serializes the complete scheduling state into
// plain data, and RestoreLiveScheduler rebuilds an equivalent scheduler
// from it, re-validating every invariant. The live dispatch service
// combines the two with the mutation stream (mutation.go) into a
// write-ahead-log + snapshot recovery scheme: restore the latest
// SchedulerSnapshot, then replay the logged mutations that followed it
// through the restored scheduler itself (Replay, replay.go).
//
// The snapshot types are plain data (JSON-encodable) so that the journal
// can store them without knowing the scheduler; nothing applies a
// mutation to them.

// TaskSnapshot is the durable state of one task.
type TaskSnapshot struct {
	Work       float64   `json:"work"`
	State      TaskState `json:"state"`
	FirstStart float64   `json:"first_start"`
	DoneAt     float64   `json:"done_at"`
	Failures   int       `json:"failures,omitempty"`
	Restart    bool      `json:"restart,omitempty"`
	IdleAccum  float64   `json:"idle_accum,omitempty"`
	IdleSince  float64   `json:"idle_since,omitempty"`
}

// BagSnapshot is the durable state of one active bag. Pending lists the
// queued task IDs in dispatch order (front first), preserving the WQR-FT
// rule that failed-task resubmissions precede never-run tasks.
type BagSnapshot struct {
	ID          int            `json:"id"`
	Arrival     float64        `json:"arrival"`
	Granularity float64        `json:"granularity"`
	FirstStart  float64        `json:"first_start"`
	Tasks       []TaskSnapshot `json:"tasks"`
	Pending     []int          `json:"pending"`
}

// ReplicaSnapshot is the durable state of one running replica: the lease
// the scheduler granted to the worker holding Machine. Seq is the replica
// token the worker echoes in reports; recovery restores it verbatim so
// stale pre-crash reports are rejected exactly as before the crash.
type ReplicaSnapshot struct {
	Seq     uint64  `json:"seq"`
	Bag     int     `json:"bag"`
	Task    int     `json:"task"`
	Machine int     `json:"machine"`
	Started float64 `json:"started"`
}

// SchedulerSnapshot is the complete durable state of a live scheduler.
// Bags holds only active (incomplete) bags in arrival order; completed
// bags need no scheduler state and are archived by the service layer.
type SchedulerSnapshot struct {
	NextBagID       int               `json:"next_bag_id"`
	Submitted       int               `json:"submitted"`
	Completed       int               `json:"completed"`
	TasksCompleted  int               `json:"tasks_completed"`
	ReplicasStarted int               `json:"replicas_started"`
	ReplicasKilled  int               `json:"replicas_killed"`
	Failures        int               `json:"failures"`
	Bags            []BagSnapshot     `json:"bags"`
	Replicas        []ReplicaSnapshot `json:"replicas"`
}

// SnapshotState captures the scheduler's complete durable state. It is a
// deep copy: the snapshot stays consistent while the scheduler keeps
// running. Live mode only; the caller owns synchronization (the dispatch
// service calls it under its mutex).
func (s *Scheduler) SnapshotState() *SchedulerSnapshot {
	if s.eng != nil {
		panic("core: SnapshotState is a live-mode entry point")
	}
	snap := &SchedulerSnapshot{
		NextBagID:       s.nextBagID,
		Submitted:       s.submitted,
		Completed:       s.completed,
		TasksCompleted:  s.tasksCompleted,
		ReplicasStarted: s.replicasStarted,
		ReplicasKilled:  s.replicasKilled,
		Failures:        s.failures,
	}
	snap.Bags = make([]BagSnapshot, 0, len(s.bags))
	for _, b := range s.bags {
		bs := BagSnapshot{
			ID:          b.ID,
			Arrival:     b.Arrival,
			Granularity: b.Granularity,
			FirstStart:  b.FirstStart,
			Tasks:       make([]TaskSnapshot, len(b.Tasks)),
			Pending:     make([]int, 0, b.pending.len()),
		}
		for i, t := range b.Tasks {
			bs.Tasks[i] = TaskSnapshot{
				Work:       t.Work,
				State:      t.State,
				FirstStart: t.FirstStart,
				DoneAt:     t.DoneAt,
				Failures:   t.Failures,
				Restart:    t.Restart,
				IdleAccum:  t.idleAccum,
				IdleSince:  t.idleSince,
			}
		}
		b.pending.forEach(func(t *Task) { bs.Pending = append(bs.Pending, t.ID) })
		snap.Bags = append(snap.Bags, bs)
	}
	// Machine-ID order keeps the replica list deterministic.
	for i := range s.mstate {
		if r := s.mstate[i].replica; r != nil {
			snap.Replicas = append(snap.Replicas, ReplicaSnapshot{
				Seq:     r.Seq,
				Bag:     r.Task.Bag.ID,
				Task:    r.Task.ID,
				Machine: r.Machine.ID,
				Started: r.Started,
			})
		}
	}
	return snap
}

// RestoreLiveScheduler rebuilds a live-mode scheduler from a snapshot.
// Machines hosting a snapshot replica must already be Up in g; every other
// machine the caller considers absent should be down, so the restored
// scheduler dispatches nothing until workers re-register. The policy's
// selection indexes are rebuilt from the restored bags; purely cosmetic
// in-memory policy state that is not part of the durable model (the RR
// rotation cursor, the Random policy's RNG position) restarts fresh.
// Restored state is validated against every scheduler invariant before the
// scheduler is returned.
func RestoreLiveScheduler(clock Clock, g *grid.Grid, p Policy, cfg SchedConfig, obs Observer, snap *SchedulerSnapshot) (*Scheduler, error) {
	if cfg.Threshold < 1 {
		return nil, fmt.Errorf("core: replication threshold %d must be >= 1", cfg.Threshold)
	}
	if cfg.SuspendOnFailure {
		return nil, fmt.Errorf("core: SuspendOnFailure needs the simulation executor")
	}
	if obs == nil {
		obs = NopObserver{}
	}
	s := &Scheduler{
		clock:           clock,
		grid:            g,
		policy:          p,
		cfg:             cfg,
		obs:             obs,
		ckptInterval:    math.Inf(1),
		mstate:          make([]machState, len(g.Machines)),
		nextBagID:       snap.NextBagID,
		submitted:       snap.Submitted,
		completed:       snap.Completed,
		tasksCompleted:  snap.TasksCompleted,
		replicasStarted: snap.ReplicasStarted,
		replicasKilled:  snap.ReplicasKilled,
		failures:        snap.Failures,
	}
	byID := make(map[int]*Bag, len(snap.Bags))
	lastID := -1
	for _, bs := range snap.Bags {
		if bs.ID <= lastID {
			return nil, fmt.Errorf("core: restore: bags out of arrival order at %d", bs.ID)
		}
		if bs.ID >= snap.NextBagID {
			return nil, fmt.Errorf("core: restore: bag %d >= next bag ID %d", bs.ID, snap.NextBagID)
		}
		lastID = bs.ID
		if len(bs.Tasks) == 0 {
			return nil, fmt.Errorf("core: restore: bag %d has no tasks", bs.ID)
		}
		b := &Bag{
			ID:          bs.ID,
			Arrival:     bs.Arrival,
			Granularity: bs.Granularity,
			FirstStart:  bs.FirstStart,
			DoneAt:      -1,
		}
		b.Tasks = make([]*Task, len(bs.Tasks))
		for i, ts := range bs.Tasks {
			t := &Task{
				ID:         i,
				Bag:        b,
				Work:       ts.Work,
				State:      ts.State,
				FirstStart: ts.FirstStart,
				DoneAt:     ts.DoneAt,
				Failures:   ts.Failures,
				Restart:    ts.Restart,
				idleAccum:  ts.IdleAccum,
				idleSince:  ts.IdleSince,
				runIdx:     -1,
			}
			b.Tasks[i] = t
			b.totalWork += t.Work
			if t.State == TaskDone {
				b.doneTasks++
				b.doneWork += t.Work
			}
		}
		// A task missing from the queue fails the invariant check below.
		for _, id := range bs.Pending {
			if id < 0 || id >= len(b.Tasks) || b.Tasks[id].State != TaskPending || b.Tasks[id].pendingEpoch != 0 {
				return nil, fmt.Errorf("core: restore: bag %d queues task %d: out of range, not pending or queued twice", b.ID, id)
			}
			t := b.Tasks[id]
			b.pending.pushBack(t)
			t.pendingEpoch++ // also marks t queued
		}
		s.pendingTotal += len(bs.Pending)
		if b.Complete() {
			return nil, fmt.Errorf("core: restore: bag %d is complete but still active", b.ID)
		}
		s.bags = append(s.bags, b)
		byID[b.ID] = b
	}
	for _, rs := range snap.Replicas {
		b := byID[rs.Bag]
		if b == nil {
			return nil, fmt.Errorf("core: restore: replica %d of unknown bag %d", rs.Seq, rs.Bag)
		}
		if rs.Task < 0 || rs.Task >= len(b.Tasks) {
			return nil, fmt.Errorf("core: restore: replica %d task %d/%d out of range", rs.Seq, rs.Bag, rs.Task)
		}
		t := b.Tasks[rs.Task]
		if t.State != TaskRunning {
			return nil, fmt.Errorf("core: restore: replica %d on task %d/%d in state %v", rs.Seq, rs.Bag, rs.Task, t.State)
		}
		if rs.Machine < 0 || rs.Machine >= len(g.Machines) {
			return nil, fmt.Errorf("core: restore: replica %d machine %d out of range", rs.Seq, rs.Machine)
		}
		m := g.Machines[rs.Machine]
		if s.mstate[m.ID].replica != nil {
			return nil, fmt.Errorf("core: restore: machine %d hosts two replicas", m.ID)
		}
		if rs.Seq == 0 || rs.Seq > uint64(snap.ReplicasStarted) {
			return nil, fmt.Errorf("core: restore: replica seq %d outside [1, %d]", rs.Seq, snap.ReplicasStarted)
		}
		r := &Replica{Task: t, Machine: m, Seq: rs.Seq, Started: rs.Started, Phase: PhaseComputing}
		t.Replicas = append(t.Replicas, r)
		b.running++
		s.totalRunning++
		s.mstate[m.ID].replica = r
	}
	if err := s.settle(); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	return s, nil
}

// settle derives from the bags, the replicas and the grid what serves only
// decisions — each bag's heap of running tasks, the free-machine pool and
// the policy's selection index, in task and machine order — and checks
// every invariant and that every replica's machine is up. Running tasks
// enter their heap only now that their replica lists are final, so heap
// keys (replica counts) are right on push. RestoreLiveScheduler and
// EndReplay end with it.
func (s *Scheduler) settle() (err error) {
	s.dropDerived()
	for _, b := range s.bags {
		for _, t := range b.Tasks {
			if t.State == TaskRunning {
				b.runHeap.push(t)
			}
		}
	}
	for _, m := range s.grid.Machines {
		if r := s.mstate[m.ID].replica; r != nil && !m.Up() {
			return fmt.Errorf("replica %d on down machine %d", r.Seq, m.ID)
		} else if r == nil && m.Up() {
			s.pushFree(m)
		}
	}
	s.attachPolicy(s.policy)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("invariant violation: %v", r)
		}
	}()
	s.CheckInvariants()
	return nil
}

// dropDerived empties what settle derives: the free-machine pool and
// every bag's heap of running tasks.
func (s *Scheduler) dropDerived() {
	s.freeStack, s.freeCount, s.freeStale = s.freeStack[:0], 0, 0
	for i := range s.mstate {
		s.mstate[i].free = false
	}
	for _, b := range s.bags {
		for _, e := range b.runHeap.es {
			e.t.runIdx = -1
		}
		clear(b.runHeap.es)
		b.runHeap.es = b.runHeap.es[:0]
	}
}
