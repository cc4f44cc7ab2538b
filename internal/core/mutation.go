package core

// This file defines the scheduler's mutation stream: a flat, replayable
// description of every state transition the scheduler performs. The live
// work-dispatch service journals the stream to a write-ahead log
// (internal/journal) so a crashed daemon can recover its scheduler state;
// see SchedulerSnapshot / RestoreLiveScheduler for the snapshot side.
//
// The stream is intentionally decision-complete: records carry the concrete
// outcome of every policy decision (which task went to which machine, under
// which replica sequence number), so recovery replays it through the
// scheduler (Replay, replay.go) and rebuilds the pre-crash state without
// re-running any policy. Observer, by contrast, is a
// presentation hook — it exposes rich pointers for metrics and tracing and
// is neither encodable nor replayable.

// MutationKind enumerates scheduler state transitions.
type MutationKind uint8

const (
	// MutBagSubmitted records a new bag entering the scheduler. Works
	// holds the per-task reference durations in task-ID order (after any
	// knowledge-based TaskOrder sort, so IDs match the stored order).
	MutBagSubmitted MutationKind = iota + 1
	// MutReplicaStarted records a replica dispatch: task Bag/Task started
	// on Machine under sequence number Seq. Restart marks a WQR-FT
	// resubmission after a failure.
	MutReplicaStarted
	// MutTaskCompleted records a task finishing through the replica Seq;
	// every sibling replica of Bag/Task is implicitly killed and its
	// machine freed (WQR-FT supersession).
	MutTaskCompleted
	// MutBagCompleted records a bag's last task completing; the bag
	// leaves the active set.
	MutBagCompleted
	// MutMachineDown records a machine failure or departure. The replica
	// hosted by Machine (if any) is implicitly lost; a task left with no
	// replicas re-enters its bag's queue at the front with Restart set.
	MutMachineDown
	// MutMachineUp records a machine (re)joining the free pool.
	MutMachineUp
)

// Mutation is one scheduler state transition. Fields beyond Kind and Time
// are populated per kind (see the MutationKind docs). The Works slice is
// borrowed: sinks must encode or copy it synchronously, never retain it.
type Mutation struct {
	Kind    MutationKind
	Time    float64
	Bag     int
	Task    int
	Machine int
	Seq     uint64
	Restart bool

	// MutBagSubmitted only.
	Granularity float64
	Works       []float64
}

// MutationSink receives every scheduler mutation, synchronously, in
// commit order, from within the scheduler's call stack. Implementations
// must be fast, must not call back into the scheduler, and must not
// retain the Mutation's Works slice.
type MutationSink func(Mutation)

// SetMutationSink installs the mutation hook. Install it before the first
// mutation (in practice: right after constructing the scheduler) so the
// stream is complete from the first record; a nil sink disables emission.
func (s *Scheduler) SetMutationSink(sink MutationSink) { s.sink = sink }

// emit forwards a mutation to the sink, if any. The nil check keeps the
// hook free for simulation schedulers, which never install one.
func (s *Scheduler) emit(m Mutation) {
	if s.sink != nil {
		s.sink(m)
	}
}
