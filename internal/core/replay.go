package core

import (
	"fmt"
	"slices"
)

// This file is the replay side of the mutation stream (mutation.go): a
// live scheduler restored from a snapshot applies the mutations logged
// after it, one at a time, with the bookkeeping its live entry points use
// but without a decision, since every record names the bag, task, machine
// and replica token the live scheduler chose. Crash recovery and a
// replication follower's standby both run on it. Nobody outside holds a
// pointer into a replaying scheduler, so it recycles the tasks of
// completed bags and the replicas that die, as simulation runs do.

// Replay applies one logged mutation without making a decision. A task
// completion kills the task's sibling replicas and, when it was the bag's
// last task, completes the bag, exactly as the live path does; the
// MutBagCompleted that follows is then only a confirmation. A machine
// going down loses its replica, and a task left with none re-enters its
// bag's queue at the front. MutMachineUp changes nothing: after recovery
// a machine is up only while it hosts a replica, which the caller
// arranges before EndReplay.
//
// A mutation that contradicts the scheduler's state is refused before
// anything changes. Observers are not called and nothing is emitted, but
// OnBagDone fires for every bag the replay completes.
//
// The first call enters replay mode, which lasts until EndReplay. What
// serves only decisions — the free pool, the policy's index and the run
// heaps — is dropped, for EndReplay to derive from the final state
// (settle) rather than keeping it up to date record by record. Live mode
// only.
func (s *Scheduler) Replay(m *Mutation) error {
	if s.eng != nil {
		panic("core: Replay is a live-mode entry point")
	}
	if !s.replaying {
		s.replaying, s.recycle, s.idx = true, true, nil
		s.dropDerived()
	}
	switch m.Kind {
	case MutBagSubmitted:
		return s.replaySubmit(m)
	case MutReplicaStarted:
		return s.replayStart(m)
	case MutTaskCompleted:
		return s.replayComplete(m)
	case MutBagCompleted:
		return s.replayBagDone(m)
	case MutMachineDown:
		return s.replayDown(m)
	case MutMachineUp:
		_, err := s.replayMachine(m)
		return err
	default:
		return fmt.Errorf("core: replay: unknown mutation kind %d", m.Kind)
	}
}

// EndReplay returns a scheduler to live dispatch. Every machine hosting a
// replica must be up by now, and every other machine the caller considers
// absent down, as RestoreLiveScheduler requires. The recycling pools go;
// the run heaps, the free pool and the policy's index are rebuilt in the
// order RestoreLiveScheduler builds them, and every invariant is checked.
// A bag a replayed task completed stays completed whether or not its
// MutBagCompleted arrived (a log may be cut between the two).
func (s *Scheduler) EndReplay() error {
	s.replaying, s.unconfirmed, s.replicaPool = false, nil, nil
	s.recycle, s.bagPool, s.taskPool, s.bagSlots = false, nil, nil, 0
	if err := s.settle(); err != nil {
		return fmt.Errorf("core: replay: %w", err)
	}
	return nil
}

// replaySubmit enters a logged bag. Its works are in the stored task
// order already, so no TaskOrder sort applies.
func (s *Scheduler) replaySubmit(m *Mutation) error {
	if m.Bag != s.nextBagID {
		return fmt.Errorf("core: replay: bag %d submitted, expected %d", m.Bag, s.nextBagID)
	}
	if len(m.Works) == 0 {
		return fmt.Errorf("core: replay: bag %d has no tasks", m.Bag)
	}
	s.enter(m.Time, m.Granularity, m.Works)
	return nil
}

// replayTask resolves the bag and task a mutation names.
func (s *Scheduler) replayTask(m *Mutation, what string) (*Bag, *Task, error) {
	b := s.Bag(m.Bag)
	if b == nil {
		return nil, nil, fmt.Errorf("core: replay: %s task %d/%d of unknown bag", what, m.Bag, m.Task)
	}
	if m.Task < 0 || m.Task >= len(b.Tasks) {
		return nil, nil, fmt.Errorf("core: replay: %s task %d/%d out of range", what, m.Bag, m.Task)
	}
	return b, b.Tasks[m.Task], nil
}

// replayMachine returns the machine state a mutation names.
func (s *Scheduler) replayMachine(m *Mutation) (*machState, error) {
	if m.Machine < 0 || m.Machine >= len(s.mstate) {
		return nil, fmt.Errorf("core: replay: machine %d outside the grid of %d", m.Machine, len(s.mstate))
	}
	return &s.mstate[m.Machine], nil
}

// replayStart starts the logged replica. A pending task leaves its bag's
// queue wherever it sits; live dispatch takes the front, but a log may
// name any queued task.
func (s *Scheduler) replayStart(m *Mutation) error {
	b, t, err := s.replayTask(m, "replica on")
	if err != nil {
		return err
	}
	if t.State == TaskDone {
		return fmt.Errorf("core: replay: replica started on done task %d/%d", m.Bag, m.Task)
	}
	st, err := s.replayMachine(m)
	if err != nil {
		return err
	}
	if st.replica != nil {
		return fmt.Errorf("core: replay: machine %d already busy at seq %d", m.Machine, m.Seq)
	}
	if t.State == TaskPending {
		b.pending.remove(t)
		s.pendingTotal--
		t.idleAccum += m.Time - t.idleSince
		t.Restart = false
		t.State = TaskRunning
		if t.FirstStart < 0 {
			t.FirstStart = m.Time
		}
		if b.FirstStart < 0 {
			b.FirstStart = m.Time
		}
	}
	r := s.newReplica()
	r.Task, r.Machine, r.Seq, r.Started, r.Phase = t, s.grid.Machines[m.Machine], m.Seq, m.Time, PhaseComputing
	t.Replicas = append(t.Replicas, r)
	b.running++
	s.totalRunning++
	if int(m.Seq) > s.replicasStarted {
		s.replicasStarted = int(m.Seq)
	}
	st.replica = r
	return nil
}

// replayComplete completes the logged task: every replica goes, and the
// bag completes with its last task, as in completeTask.
func (s *Scheduler) replayComplete(m *Mutation) error {
	b, t, err := s.replayTask(m, "completion of")
	if err != nil {
		return err
	}
	if t.State != TaskRunning {
		return fmt.Errorf("core: replay: completion of %v task %d/%d", t.State, m.Bag, m.Task)
	}
	t.State = TaskDone
	t.DoneAt = m.Time
	b.doneTasks++
	b.doneWork += t.Work
	reps := t.Replicas
	for _, r := range reps {
		s.mstate[r.Machine.ID].replica = nil
		s.freeReplica(r)
	}
	t.Replicas = pooledReplicas(reps)
	b.running -= len(reps)
	s.totalRunning -= len(reps)
	s.tasksCompleted++
	s.replicasKilled += len(reps) - 1
	if b.Complete() {
		b.DoneAt = m.Time
		s.removeBag(b)
		s.completed++
		s.unconfirmed = append(s.unconfirmed, b.ID)
		if s.OnBagDone != nil {
			s.OnBagDone(b)
		}
		s.freeBag(b)
	}
	return nil
}

// replayBagDone confirms a completion replayComplete already applied.
func (s *Scheduler) replayBagDone(m *Mutation) error {
	if i := slices.Index(s.unconfirmed, m.Bag); i >= 0 {
		last := len(s.unconfirmed) - 1
		s.unconfirmed[i] = s.unconfirmed[last]
		s.unconfirmed = s.unconfirmed[:last]
		return nil
	}
	if s.Bag(m.Bag) != nil {
		return fmt.Errorf("core: replay: bag %d completed before its last task", m.Bag)
	}
	return fmt.Errorf("core: replay: completion of unknown bag %d", m.Bag)
}

// replayDown loses the machine's replica, as MachineFailed does. The
// replica leaves its task's list in place, so the survivors keep the
// order they started in, the order a snapshot restores.
func (s *Scheduler) replayDown(m *Mutation) error {
	st, err := s.replayMachine(m)
	if err != nil || st.replica == nil {
		return err // a machine with no replica going down changes nothing
	}
	r := st.replica
	st.replica = nil
	t := r.Task
	b := t.Bag
	i := slices.Index(t.Replicas, r)
	t.Replicas = slices.Delete(t.Replicas, i, i+1)
	b.running--
	s.totalRunning--
	s.failures++
	t.Failures++
	if len(t.Replicas) == 0 {
		t.idleSince = m.Time
		t.Restart = true
		b.enqueuePending(t, true)
		s.pendingTotal++
	}
	s.freeReplica(r)
	return nil
}
