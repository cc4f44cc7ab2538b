package journal

import (
	"fmt"
	"slices"

	"botgrid/internal/core"
)

// linearState is the plain-data replay state machine recovery ran before
// records were replayed through core.Scheduler: every step scans (and
// memmoves) the live replicas and the worker table. It is kept, verbatim
// but for the receiver type and the newest-time tracking State no longer
// carries, only as the oracle the scheduler's replay is held to
// (replayVsOracle, TestOpenMatchesOracle, the decision differential).
// Convert with (*linearState)(st); the two types share one layout.
type linearState State

// bag returns a pointer to the active bag with the given ID.
func (st *linearState) bag(id int) (*core.BagSnapshot, error) {
	for i := range st.Sched.Bags {
		if st.Sched.Bags[i].ID == id {
			return &st.Sched.Bags[i], nil
		}
	}
	return nil, fmt.Errorf("journal: replay: unknown bag %d", id)
}

// Apply folds one journal record into the state. Errors mean the log
// contradicts the state it is being replayed onto — corruption or a bug —
// and recovery must stop.
func (st *linearState) Apply(r *Record) error {
	switch r.Kind {
	case KindBagSubmitted:
		return st.applyBagSubmitted(r)
	case KindReplicaStarted:
		return st.applyReplicaStarted(r)
	case KindTaskCompleted:
		return st.applyTaskCompleted(r)
	case KindBagCompleted:
		return st.applyBagCompleted(r)
	case KindMachineDown:
		return st.applyMachineDown(r)
	case KindMachineUp:
		// Machine slots are not restored as up unless they hold a replica;
		// the record exists for the audit trail only.
		return nil
	case KindWorkerRegistered:
		return st.applyWorkerRegistered(r)
	case KindWorkerSeen:
		return st.applyWorkerSeen(r)
	default:
		return fmt.Errorf("journal: replay: unknown record kind %d", r.Kind)
	}
}

func (st *linearState) applyBagSubmitted(r *Record) error {
	s := st.Sched
	if r.Bag != s.NextBagID {
		return fmt.Errorf("journal: replay: bag %d submitted, expected %d", r.Bag, s.NextBagID)
	}
	bs := core.BagSnapshot{
		ID:          r.Bag,
		Arrival:     r.Time,
		Granularity: r.Granularity,
		FirstStart:  -1,
		Tasks:       make([]core.TaskSnapshot, len(r.Works)),
		Pending:     make([]int, len(r.Works)),
	}
	for i, w := range r.Works {
		bs.Tasks[i] = core.TaskSnapshot{
			Work:       w,
			State:      core.TaskPending,
			FirstStart: -1,
			DoneAt:     -1,
			IdleSince:  r.Time,
		}
		bs.Pending[i] = i
	}
	s.Bags = append(s.Bags, bs)
	s.NextBagID = r.Bag + 1
	s.Submitted++
	return nil
}

func (st *linearState) applyReplicaStarted(r *Record) error {
	s := st.Sched
	b, err := st.bag(r.Bag)
	if err != nil {
		return err
	}
	if r.Task < 0 || r.Task >= len(b.Tasks) {
		return fmt.Errorf("journal: replay: replica on task %d/%d out of range", r.Bag, r.Task)
	}
	t := &b.Tasks[r.Task]
	switch t.State {
	case core.TaskPending:
		i := slices.Index(b.Pending, r.Task)
		switch {
		case i < 0:
			return fmt.Errorf("journal: replay: pending task %d/%d not queued", r.Bag, r.Task)
		case i == 0:
			// Dispatch pops the queue front, so this is the overwhelmingly
			// common case; re-slicing keeps replay linear in log length.
			b.Pending = b.Pending[1:]
		default:
			b.Pending = slices.Delete(b.Pending, i, i+1)
		}
		t.IdleAccum += r.Time - t.IdleSince
		t.State = core.TaskRunning
		t.Restart = false
		if t.FirstStart < 0 {
			t.FirstStart = r.Time
		}
		if b.FirstStart < 0 {
			b.FirstStart = r.Time
		}
	case core.TaskRunning:
		// An additional replica of an already-running task.
	default:
		return fmt.Errorf("journal: replay: replica started on done task %d/%d", r.Bag, r.Task)
	}
	for _, rep := range s.Replicas {
		if rep.Machine == r.Machine {
			return fmt.Errorf("journal: replay: machine %d already busy at seq %d", r.Machine, r.Seq)
		}
	}
	s.Replicas = append(s.Replicas, core.ReplicaSnapshot{
		Seq: r.Seq, Bag: r.Bag, Task: r.Task, Machine: r.Machine, Started: r.Time,
	})
	if int(r.Seq) > s.ReplicasStarted {
		s.ReplicasStarted = int(r.Seq)
	}
	return nil
}

// dropReplicas removes every replica of bag/task, returning how many.
func (st *linearState) dropReplicas(bag, task int) int {
	s := st.Sched
	n := 0
	for i := 0; i < len(s.Replicas); {
		if s.Replicas[i].Bag == bag && s.Replicas[i].Task == task {
			s.Replicas = slices.Delete(s.Replicas, i, i+1)
			n++
		} else {
			i++
		}
	}
	return n
}

func (st *linearState) applyTaskCompleted(r *Record) error {
	b, err := st.bag(r.Bag)
	if err != nil {
		return err
	}
	if r.Task < 0 || r.Task >= len(b.Tasks) {
		return fmt.Errorf("journal: replay: completion of task %d/%d out of range", r.Bag, r.Task)
	}
	t := &b.Tasks[r.Task]
	if t.State != core.TaskRunning {
		return fmt.Errorf("journal: replay: completion of %v task %d/%d", t.State, r.Bag, r.Task)
	}
	dropped := st.dropReplicas(r.Bag, r.Task)
	if dropped == 0 {
		return fmt.Errorf("journal: replay: completed task %d/%d had no replica", r.Bag, r.Task)
	}
	t.State = core.TaskDone
	t.DoneAt = r.Time
	st.Sched.TasksCompleted++
	st.Sched.ReplicasKilled += dropped - 1
	return nil
}

func (st *linearState) applyBagCompleted(r *Record) error {
	b, err := st.bag(r.Bag)
	if err != nil {
		return err
	}
	for i := range b.Tasks {
		if b.Tasks[i].State != core.TaskDone {
			return fmt.Errorf("journal: replay: bag %d completed with task %d %v", r.Bag, i, b.Tasks[i].State)
		}
	}
	st.Completed = append(st.Completed, CompletedBag{
		ID:          b.ID,
		Arrival:     b.Arrival,
		Granularity: b.Granularity,
		DoneAt:      r.Time,
		Tasks:       len(b.Tasks),
	})
	s := st.Sched
	for i := range s.Bags {
		if s.Bags[i].ID == r.Bag {
			s.Bags = slices.Delete(s.Bags, i, i+1)
			break
		}
	}
	s.Completed++
	return nil
}

func (st *linearState) applyMachineDown(r *Record) error {
	s := st.Sched
	for i := range s.Replicas {
		rep := s.Replicas[i]
		if rep.Machine != r.Machine {
			continue
		}
		s.Replicas = slices.Delete(s.Replicas, i, i+1)
		s.Failures++
		b, err := st.bag(rep.Bag)
		if err != nil {
			return err
		}
		t := &b.Tasks[rep.Task]
		t.Failures++
		still := false
		for _, other := range s.Replicas {
			if other.Bag == rep.Bag && other.Task == rep.Task {
				still = true
				break
			}
		}
		if !still {
			// Last replica lost: the task re-enters its bag's queue at the
			// front (WQR-FT resubmission priority).
			t.State = core.TaskPending
			t.Restart = true
			t.IdleSince = r.Time
			b.Pending = slices.Insert(b.Pending, 0, rep.Task)
		}
		break
	}
	// A machine with no replica going down needs no state change.
	return nil
}

func (st *linearState) applyWorkerRegistered(r *Record) error {
	for i := range st.Workers {
		if st.Workers[i].ID == r.Worker {
			if st.Workers[i].Machine != r.Machine {
				return fmt.Errorf("journal: replay: worker %q moved slot %d -> %d",
					r.Worker, st.Workers[i].Machine, r.Machine)
			}
			st.Workers[i].Power = r.Power
			st.Workers[i].LastSeen = r.Time
			return nil
		}
	}
	for i := range st.Workers {
		if st.Workers[i].Machine == r.Machine {
			return fmt.Errorf("journal: replay: slot %d taken by %q, claimed by %q",
				r.Machine, st.Workers[i].ID, r.Worker)
		}
	}
	st.Workers = append(st.Workers, WorkerSnapshot{
		ID: r.Worker, Machine: r.Machine, Power: r.Power, LastSeen: r.Time,
	})
	return nil
}

func (st *linearState) applyWorkerSeen(r *Record) error {
	for i := range st.Workers {
		if st.Workers[i].Machine == r.Machine {
			if r.Time > st.Workers[i].LastSeen {
				st.Workers[i].LastSeen = r.Time
			}
			return nil
		}
	}
	return fmt.Errorf("journal: replay: seen record for unregistered slot %d", r.Machine)
}
