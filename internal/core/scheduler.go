package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"botgrid/internal/checkpoint"
	"botgrid/internal/des"
	"botgrid/internal/grid"
)

// ReplicaPhase describes what a running replica is doing.
type ReplicaPhase int

const (
	// PhaseRetrieving means the replica is fetching the latest checkpoint
	// from the checkpoint server before computing.
	PhaseRetrieving ReplicaPhase = iota
	// PhaseComputing means the replica is making progress on the task.
	PhaseComputing
	// PhaseSaving means the replica is storing a checkpoint.
	PhaseSaving
)

// Replica is one running instance of a task on a machine.
type Replica struct {
	// Task is the task being executed.
	Task *Task
	// Machine hosts the replica.
	Machine *grid.Machine
	// Seq uniquely identifies the replica within its scheduler's
	// lifetime (dispatch order, starting at 1). The live work-dispatch
	// service uses it as the replica token workers echo in reports.
	Seq uint64
	// Started is when the replica was dispatched.
	Started float64
	// Phase is the replica's current activity.
	Phase ReplicaPhase
	// Suspended marks a replica frozen on a failed machine
	// (SuspendOnFailure mode); it resumes when the machine repairs.
	Suspended bool

	// done is the reference-seconds of the task completed by this
	// replica, including the checkpointed prefix it resumed from.
	done float64
	// segStart is when the current compute segment began (valid in
	// PhaseComputing); it realizes partial progress on suspension.
	segStart float64
	ev       des.EventRef
	xfer     *checkpoint.Transfer
}

// Observer receives scheduling events; implementations must not mutate the
// arguments. All methods are called synchronously from the simulation loop.
//
// In runs started by Run or Runner.Run, the *Bag, *Task and *Replica
// arguments are valid only during the callback: the scheduler reuses their
// storage for later bags, tasks and replicas. In Runner.Run runs the same
// holds for a *grid.Machine across runs: the next run reuses it as a
// machine of its own grid, with another power and history. An observer
// that needs any of them afterwards copies what it needs, such as IDs and
// counts.
type Observer interface {
	BagSubmitted(now float64, b *Bag)
	BagCompleted(now float64, b *Bag)
	ReplicaStarted(now float64, r *Replica, restart bool)
	ReplicaFailed(now float64, t *Task, m *grid.Machine)
	TaskCompleted(now float64, t *Task, replicasKilled int)
	CheckpointSaved(now float64, t *Task, work float64)
	MachineFailed(now float64, m *grid.Machine)
	MachineRepaired(now float64, m *grid.Machine)
}

// NopObserver ignores every event.
type NopObserver struct{}

// BagSubmitted implements Observer.
func (NopObserver) BagSubmitted(float64, *Bag) {}

// BagCompleted implements Observer.
func (NopObserver) BagCompleted(float64, *Bag) {}

// ReplicaStarted implements Observer.
func (NopObserver) ReplicaStarted(float64, *Replica, bool) {}

// ReplicaFailed implements Observer.
func (NopObserver) ReplicaFailed(float64, *Task, *grid.Machine) {}

// TaskCompleted implements Observer.
func (NopObserver) TaskCompleted(float64, *Task, int) {}

// CheckpointSaved implements Observer.
func (NopObserver) CheckpointSaved(float64, *Task, float64) {}

// MachineFailed implements Observer.
func (NopObserver) MachineFailed(float64, *grid.Machine) {}

// MachineRepaired implements Observer.
func (NopObserver) MachineRepaired(float64, *grid.Machine) {}

var _ Observer = NopObserver{}

// TaskOrder selects the order in which a bag's never-run tasks are
// dispatched. WQR is knowledge-free and uses arbitrary order; the other
// orders require knowing task durations and implement the paper's
// future-work direction of coupling bag selection with knowledge-based
// individual-bag scheduling.
type TaskOrder int

const (
	// ArbitraryOrder dispatches tasks in generation order (WQR).
	ArbitraryOrder TaskOrder = iota
	// LongestFirst dispatches the largest tasks first (LPT), the classic
	// knowledge-based heuristic for parallel-machine makespan.
	LongestFirst
	// ShortestFirst dispatches the smallest tasks first (SPT).
	ShortestFirst
)

// String names the task order.
func (o TaskOrder) String() string {
	switch o {
	case ArbitraryOrder:
		return "arbitrary"
	case LongestFirst:
		return "longest-first"
	case ShortestFirst:
		return "shortest-first"
	default:
		return fmt.Sprintf("TaskOrder(%d)", int(o))
	}
}

// SchedConfig tunes the scheduler.
type SchedConfig struct {
	// Threshold is the WQR-FT replication threshold (paper default: 2,
	// meaning the scheduler tries to keep two running replicas per task).
	Threshold int
	// TaskOrder is the within-bag dispatch order (default: arbitrary,
	// the knowledge-free WQR rule).
	TaskOrder TaskOrder
	// DynamicReplication suppresses replication (threshold 1) while any
	// bag still has pending tasks, a dynamic variant of WQR-FT suggested
	// by the paper's future-work section. FCFS-Excl ignores it, since its
	// exclusive semantics require unlimited replication.
	DynamicReplication bool
	// FastestMachineFirst dispatches to the fastest free machine instead
	// of an arbitrary one — a knowledge-based machine-selection baseline.
	FastestMachineFirst bool
	// SuspendOnFailure switches failure semantics from the paper's
	// kill-and-resubmit to BOINC-style suspend-and-resume: a failed
	// machine's replica keeps its progress locally and continues when
	// the machine returns, instead of restarting elsewhere from the last
	// checkpoint. Siblings may still be replicated meanwhile.
	SuspendOnFailure bool
}

// DefaultSchedConfig returns the paper's scheduler parameters.
func DefaultSchedConfig() SchedConfig { return SchedConfig{Threshold: 2} }

type machState struct {
	replica *Replica
	free    bool
	epoch   uint32
}

type freeEntry struct {
	m     *grid.Machine
	epoch uint32
}

// Scheduler is the centralized two-step scheduler of the paper: a bag
// selection Policy layered over WQR-FT individual-bag scheduling.
// It implements grid.Listener to react to machine failures and repairs.
//
// A scheduler runs in one of two modes sharing all policy and bookkeeping
// code. In simulation mode (NewScheduler) time flows from a des.Engine and
// replica execution is predicted by scheduling compute/checkpoint events on
// it. In live mode (NewLiveScheduler) time flows from an arbitrary Clock
// (typically a WallClock), no events are scheduled, and real workers drive
// completion through CompleteReplica and failure through MachineFailed.
// Neither mode is safe for concurrent use; live callers must serialize
// access (internal/serve wraps every call in a mutex).
type Scheduler struct {
	clock  Clock
	eng    *des.Engine // nil in live mode
	grid   *grid.Grid
	ckpt   *checkpoint.Server // nil in live mode
	policy Policy
	idx    indexedPolicy // policy's index hooks, nil for unindexed policies
	cfg    SchedConfig
	obs    Observer
	sink   MutationSink // journaling hook; nil for simulation schedulers

	// Pre-bound event and transfer callbacks (simulation mode). Binding
	// the method values once lets the hot path schedule replica events
	// through des.ScheduleFunc with a *Replica argument instead of
	// allocating a fresh closure per event.
	segDoneFn      func(*des.Engine, any)
	ckptDueFn      func(*des.Engine, any)
	retrieveDoneFn func(any)
	saveDoneFn     func(any)

	// OnBagDone, when non-nil, fires after a bag completes (after the
	// Observer callback). The runner uses it to stop the simulation. The
	// Observer's pointer contract applies to its argument.
	OnBagDone func(*Bag)

	ckptInterval float64

	bags            []*Bag // active bags in arrival (ID) order
	nextBagID       int
	submitted       int
	completed       int
	pendingTotal    int
	totalRunning    int
	failures        int
	suspensions     int
	replicasStarted int
	tasksCompleted  int
	replicasKilled  int // sibling replicas cancelled by task completions

	mstate    []machState
	freeStack []freeEntry
	freeCount int
	freeStale int // stack entries invalidated since the last compaction

	// replicaPool recycles Replica structs (simulation mode and replay
	// only). A run starts one replica per dispatch — by far the largest
	// allocation site — and a replica is unreferenced once its task
	// completes or its machine fails, so the storage can back the next
	// dispatch. Live dispatch never pools: external workers hold replica
	// pointers across kills and validate staleness by pointer identity
	// (see ReplicaOn), which reuse would break. In a Runner the pool, like
	// mstate and freeStack, passes to the next replication's scheduler
	// (see retire).
	replicaPool []*Replica

	// recycle, set by run and by Replay until EndReplay, keeps a completed
	// bag's storage for the next Submit: the Bag on bagPool, its Task
	// structs on taskPool. Only those two turn it on, because only they
	// keep the *Bag to the scheduler; see DESIGN.md, "Bag and task storage
	// lifecycle". bagSlots is the room for tasks the pooled bags' task
	// lists have, Σ cap(Tasks) over bagPool. bounded, set once a run's
	// last arrival is in, caps both taskPool's length and bagSlots at the
	// grid's machine count, so that what the pools pass to the next
	// replication (see retire) scales with the grid only.
	recycle  bool
	bounded  bool
	bagPool  []*Bag
	taskPool []*Task
	bagSlots int

	// replaying is set from the first Replay until EndReplay; unconfirmed
	// lists the bags replay completed whose MutBagCompleted has not come.
	replaying   bool
	unconfirmed []int
}

// newReplica takes a Replica from the pool or allocates one.
func (s *Scheduler) newReplica() *Replica {
	if n := len(s.replicaPool); n > 0 {
		r := s.replicaPool[n-1]
		s.replicaPool[n-1] = nil
		s.replicaPool = s.replicaPool[:n-1]
		return r
	}
	return &Replica{}
}

// freeReplica returns a dead replica's storage to the pool. Callers
// guarantee no reference remains: the task's replica list, the machine
// state and all scheduled work have already been cleared.
func (s *Scheduler) freeReplica(r *Replica) {
	if s.eng == nil && !s.replaying {
		return
	}
	*r = Replica{}
	s.replicaPool = append(s.replicaPool, r)
}

// takeBag returns storage for a bag of n tasks: the most recently freed
// bag and n pooled tasks, or growBag's fresh storage when the pools fall
// short.
//
//botlint:hotpath
func (s *Scheduler) takeBag(n int) *Bag {
	var b *Bag
	if k := len(s.bagPool); k > 0 {
		b = s.bagPool[k-1]
		s.bagPool[k-1] = nil
		s.bagPool = s.bagPool[:k-1]
		s.bagSlots -= cap(b.Tasks)
	}
	if b == nil || cap(b.Tasks) < n || len(s.taskPool) < n {
		return s.growBag(b, n)
	}
	s.takeTasks(b, n)
	return b
}

// takeTasks moves the last k pooled tasks into b.Tasks.
//
//botlint:hotpath
func (s *Scheduler) takeTasks(b *Bag, k int) {
	m := len(s.taskPool) - k
	b.Tasks = append(b.Tasks, s.taskPool[m:]...)
	clear(s.taskPool[m:])
	s.taskPool = s.taskPool[:m]
}

// growBag is takeBag's miss path: b (a new Bag when nil) with room for n
// tasks, the pooled tasks there are and one slab for the rest. Kept out of
// takeBag (and out of the inliner) so its allocations stay off the reuse
// path's escape profile. A scheduler that does not recycle takes every
// bag from here.
//
//go:noinline
func (s *Scheduler) growBag(b *Bag, n int) *Bag {
	if b == nil {
		b = new(Bag)
	}
	if cap(b.Tasks) < n {
		b.Tasks = make([]*Task, 0, n)
	}
	s.takeTasks(b, min(n, len(s.taskPool)))
	slab := make([]Task, n-len(b.Tasks))
	for i := range slab {
		b.Tasks = append(b.Tasks, &slab[i])
	}
	return b
}

// maxPooledReplicas is the most Replicas slots a pooled task keeps. A bag's
// tail may run on many replicas (FCFS-Excl puts up to a grid's worth on
// its last tasks); storage that kept those capacities would ratchet up with
// every reuse.
const maxPooledReplicas = 4

// pooledReplicas is what a pooled task keeps of its replica list: the
// emptied slice, or nothing past maxPooledReplicas slots.
func pooledReplicas(reps []*Replica) []*Replica {
	if cap(reps) > maxPooledReplicas {
		return nil
	}
	return reps[:0]
}

// poolFits reports whether the pools take b's storage: always while the
// run's arrivals continue, and afterwards only while the pooled tasks and
// the pooled bags' room for tasks each stay within one per machine.
func (s *Scheduler) poolFits(b *Bag) bool {
	n := len(s.grid.Machines)
	return s.recycle && (!s.bounded ||
		len(s.taskPool)+len(b.Tasks) <= n && s.bagSlots+cap(b.Tasks) <= n)
}

// freeBag returns a completed bag's storage to the pools when they take
// it. Callers guarantee no reference remains: the bag has left s.bags, its
// tasks hold no replica and the observers have returned.
//
//botlint:hotpath
func (s *Scheduler) freeBag(b *Bag) {
	if !s.poolFits(b) {
		return
	}
	s.taskPool = append(s.taskPool, b.Tasks...)
	clear(b.Tasks)
	b.Tasks = b.Tasks[:0]
	s.bagPool = append(s.bagPool, b)
	s.bagSlots += cap(b.Tasks)
}

// freeActive returns the storage of a bag still active when its run ends,
// when the pools take it. Nothing refers to it any more, but its tasks
// still list replicas and its queue and run heap still hold tasks, so they
// are emptied first.
//
//botlint:hotpath
func (s *Scheduler) freeActive(b *Bag) {
	if !s.poolFits(b) {
		return
	}
	for _, t := range b.Tasks {
		t.Replicas = pooledReplicas(t.Replicas)
	}
	clear(b.pending.buf)
	clear(b.runHeap.es)
	b.runHeap.es = b.runHeap.es[:0]
	s.freeBag(b)
}

// boundPools caps the pools at one task per machine once a run's last
// arrival is in: no Submit of the run takes from them any more, and what
// they hold passes to the next replication. Pools already past the cap are
// dropped whole. Trimming them instead would keep tasks that pin the
// growBag slabs of the bags they let go.
func (s *Scheduler) boundPools() {
	s.bounded = true
	if n := len(s.grid.Machines); len(s.taskPool) > n || s.bagSlots > n {
		s.bagPool, s.taskPool, s.bagSlots = nil, nil, 0
	}
}

// NewScheduler wires a scheduler to an engine, grid and checkpoint server.
// The checkpoint interval follows Young's formula using the grid's MTBF.
// obs may be nil.
func NewScheduler(eng *des.Engine, g *grid.Grid, ck *checkpoint.Server, p Policy, cfg SchedConfig, obs Observer) *Scheduler {
	return newScheduler(eng, g, ck, p, cfg, obs, nil)
}

// newScheduler is NewScheduler built, when prev is not nil, on the storage
// of prev, the retired scheduler of an earlier replication (see retire).
func newScheduler(eng *des.Engine, g *grid.Grid, ck *checkpoint.Server, p Policy, cfg SchedConfig, obs Observer, prev *Scheduler) *Scheduler {
	if cfg.Threshold < 1 {
		panic(fmt.Sprintf("core: replication threshold %d must be >= 1", cfg.Threshold))
	}
	if obs == nil {
		obs = NopObserver{}
	}
	s := &Scheduler{
		clock:        eng,
		eng:          eng,
		grid:         g,
		ckpt:         ck,
		policy:       p,
		cfg:          cfg,
		obs:          obs,
		ckptInterval: ck.Interval(g.Config.MTBF()),
	}
	if prev != nil {
		s.mstate, s.freeStack, s.replicaPool = prev.mstate, prev.freeStack, prev.replicaPool
		s.bagPool, s.taskPool, s.bagSlots = prev.bagPool, prev.taskPool, prev.bagSlots
	}
	s.mstate = slices.Grow(s.mstate, len(g.Machines))[:len(g.Machines)]
	s.segDoneFn = s.onSegmentDone
	s.ckptDueFn = s.onCheckpointDue
	s.retrieveDoneFn = s.onRetrieveDone
	s.saveDoneFn = s.onSaveDone
	for _, m := range g.Machines {
		if m.Up() {
			s.pushFree(m)
		}
	}
	s.attachPolicy(p)
	return s
}

// retire ends a simulation scheduler's replication and strips it to the
// storage whose size follows the grid, for newScheduler to build the next
// replication's scheduler on: the per-machine state, zeroed and emptied, the
// emptied free stack, the replica pool, which takes back the replicas still
// running, and the bag and task pools, which take back the bags still
// active within their cap of one task per machine (boundPools). The rest
// of the workload (the bags the pools do not take, the policy and its
// indexes) is dropped, so a retired scheduler keeps no more storage alive
// between replications than the grid's size allows.
func (s *Scheduler) retire() {
	for i := range s.mstate {
		if r := s.mstate[i].replica; r != nil {
			s.freeReplica(r)
		}
	}
	s.boundPools()
	for _, b := range s.bags {
		s.freeActive(b)
	}
	clear(s.mstate)
	*s = Scheduler{mstate: s.mstate[:0], freeStack: s.freeStack[:0], replicaPool: s.replicaPool,
		bagPool: s.bagPool, taskPool: s.taskPool, bagSlots: s.bagSlots}
}

// NewLiveScheduler wires a scheduler in live mode: time is read from clock
// and replicas execute on external workers instead of simulated events.
// Checkpointing is not modeled (a resubmitted task restarts from scratch,
// plain-WQR style); SuspendOnFailure requires simulated events and is
// rejected. obs may be nil. The caller owns synchronization.
func NewLiveScheduler(clock Clock, g *grid.Grid, p Policy, cfg SchedConfig, obs Observer) *Scheduler {
	if cfg.Threshold < 1 {
		panic(fmt.Sprintf("core: replication threshold %d must be >= 1", cfg.Threshold))
	}
	if cfg.SuspendOnFailure {
		panic("core: SuspendOnFailure needs the simulation executor")
	}
	if obs == nil {
		obs = NopObserver{}
	}
	s := &Scheduler{
		clock:        clock,
		grid:         g,
		policy:       p,
		cfg:          cfg,
		obs:          obs,
		ckptInterval: math.Inf(1),
		mstate:       make([]machState, len(g.Machines)),
	}
	for _, m := range g.Machines {
		if m.Up() {
			s.pushFree(m)
		}
	}
	s.attachPolicy(p)
	return s
}

// attachPolicy wires the policy's schedulability index, when it has one.
func (s *Scheduler) attachPolicy(p Policy) {
	if ip, ok := p.(indexedPolicy); ok {
		s.idx = ip
		ip.attach(s)
	}
}

// noteBag publishes that b's schedulability inputs changed: its stamp is
// bumped (invalidating every index entry) and the policy re-indexes it.
// Every mutation of a bag's pending count, replica counts, running total or
// remaining work — and its removal — must be followed by a noteBag before
// the next SelectBag.
func (s *Scheduler) noteBag(b *Bag) {
	b.stamp++
	if s.idx != nil {
		s.idx.bagChanged(b)
	}
}

// noteQueued publishes that t entered its bag's pending queue. It must run
// after enqueuePending (which bumps t's epoch) and is always followed by a
// noteBag for the owning bag.
func (s *Scheduler) noteQueued(t *Task) {
	if s.idx != nil {
		s.idx.taskQueued(t)
	}
}

// Bags returns the active bags in arrival order. The slice is owned by the
// scheduler; callers must not mutate it.
func (s *Scheduler) Bags() []*Bag { return s.bags }

// Bag returns the active bag with the given ID, or nil when the bag is
// unknown or already completed.
func (s *Scheduler) Bag(id int) *Bag {
	if i := s.bagIndex(id); i >= 0 {
		return s.bags[i]
	}
	return nil
}

// Now returns the current simulation time.
func (s *Scheduler) Now() float64 { return s.clock.Now() }

// Submitted returns the number of bags submitted so far.
func (s *Scheduler) Submitted() int { return s.submitted }

// Completed returns the number of bags fully completed so far.
func (s *Scheduler) Completed() int { return s.completed }

// PendingTasks returns the number of queued (replica-less) tasks.
func (s *Scheduler) PendingTasks() int { return s.pendingTotal }

// RunningReplicas returns the number of replicas currently executing.
func (s *Scheduler) RunningReplicas() int { return s.totalRunning }

// FreeMachines returns the number of up, unassigned machines.
func (s *Scheduler) FreeMachines() int { return s.freeCount }

// ReplicaFailures returns the number of replicas lost to machine failures.
func (s *Scheduler) ReplicaFailures() int { return s.failures }

// ReplicasStarted returns the number of replicas dispatched so far.
func (s *Scheduler) ReplicasStarted() int { return s.replicasStarted }

// TasksCompleted returns the number of tasks completed so far.
func (s *Scheduler) TasksCompleted() int { return s.tasksCompleted }

// Suspensions returns the number of replica suspensions (SuspendOnFailure
// mode only).
func (s *Scheduler) Suspensions() int { return s.suspensions }

// ReplicasKilled returns the number of sibling replicas cancelled because
// another replica of their task completed first — the "cycles traded for
// information" overhead of replication-based knowledge-free scheduling.
func (s *Scheduler) ReplicasKilled() int { return s.replicasKilled }

// Submit enters a new bag with the given per-task reference durations at
// the current simulation time and immediately attempts dispatch. With a
// knowledge-based TaskOrder the queue is sorted once at submission, since
// task durations are static.
func (s *Scheduler) Submit(granularity float64, works []float64) *Bag {
	if len(works) == 0 {
		panic("core: cannot submit an empty bag")
	}
	switch s.cfg.TaskOrder {
	case LongestFirst:
		works = sortedWorks(works, func(a, b float64) bool { return a > b })
	case ShortestFirst:
		works = sortedWorks(works, func(a, b float64) bool { return a < b })
	}
	b := s.enter(s.clock.Now(), granularity, works)
	for _, t := range b.Tasks {
		s.noteQueued(t)
	}
	s.noteBag(b)
	s.emit(Mutation{Kind: MutBagSubmitted, Time: b.Arrival, Bag: b.ID,
		Granularity: granularity, Works: works})
	s.obs.BagSubmitted(s.clock.Now(), b)
	s.dispatch()
	return b
}

// enter adds a bag of works, every task pending, under the next bag ID.
func (s *Scheduler) enter(now, granularity float64, works []float64) *Bag {
	b := s.takeBag(len(works))
	b.reset(s.nextBagID, now, granularity, works)
	s.nextBagID++
	s.submitted++
	s.bags = append(s.bags, b)
	s.pendingTotal += len(works)
	return b
}

// effectiveThreshold resolves the replication threshold for this dispatch
// round: the dynamic-replication rule first, then the policy override.
//
//botlint:hotpath
func (s *Scheduler) effectiveThreshold() int {
	base := s.cfg.Threshold
	if s.cfg.DynamicReplication && s.pendingTotal > 0 {
		base = 1
	}
	return s.policy.Threshold(base)
}

// dispatch assigns free machines to tasks until either runs out: the
// two-step bag-selection + WQR-FT loop at the heart of the paper.
func (s *Scheduler) dispatch() {
	for s.freeCount > 0 {
		thr := s.effectiveThreshold()
		b := s.policy.SelectBag(s, thr)
		if b == nil {
			return
		}
		m := s.takeFreeMachine()
		if m == nil {
			return
		}
		restart := false
		t := b.popPending()
		if t != nil {
			s.pendingTotal--
			restart = t.Restart
		} else if t = b.replicable(thr); t == nil {
			// The policy promised schedulability it cannot deliver;
			// return the machine and refuse to spin.
			s.pushFree(m)
			return
		}
		s.startReplica(t, m, restart)
		s.noteBag(b)
	}
}

// pushFree marks m available and stacks it for O(1) allocation.
func (s *Scheduler) pushFree(m *grid.Machine) {
	st := &s.mstate[m.ID]
	if st.free || st.replica != nil {
		panic("core: machine double-freed")
	}
	st.free = true
	st.epoch++
	s.freeStack = append(s.freeStack, freeEntry{m: m, epoch: st.epoch})
	s.freeCount++
}

// noteStaleFree records that a free-stack entry was invalidated and, once
// stale entries outnumber live ones, compacts the stack in place. The
// filter preserves entry order, so dispatch pops the same machines in the
// same order as the purely lazy scheme; without the sweep a wide grid
// whose idle machines churn through failure/repair cycles between
// dispatches grows the stack by one dead entry per failure for the whole
// run.
func (s *Scheduler) noteStaleFree() {
	s.freeStale++
	if s.freeStale <= 64 || s.freeStale <= s.freeCount {
		return
	}
	kept := s.freeStack[:0]
	for _, e := range s.freeStack {
		st := &s.mstate[e.m.ID]
		if st.free && st.epoch == e.epoch {
			kept = append(kept, e)
		}
	}
	s.freeStack = kept
	s.freeStale = 0
}

// takeFreeMachine pops a valid free machine (LIFO, knowledge-free) or the
// fastest free one when FastestMachineFirst is set. Stale stack entries
// (invalidated by failures) are discarded lazily.
func (s *Scheduler) takeFreeMachine() *grid.Machine {
	if s.cfg.FastestMachineFirst {
		return s.takeFastestFree()
	}
	for len(s.freeStack) > 0 {
		e := s.freeStack[len(s.freeStack)-1]
		s.freeStack = s.freeStack[:len(s.freeStack)-1]
		st := &s.mstate[e.m.ID]
		if st.free && st.epoch == e.epoch {
			st.free = false
			s.freeCount--
			return e.m
		}
		if s.freeStale > 0 {
			s.freeStale--
		}
	}
	return nil
}

func (s *Scheduler) takeFastestFree() *grid.Machine {
	var best *grid.Machine
	for _, m := range s.grid.Machines {
		if s.mstate[m.ID].free && (best == nil || m.Power > best.Power) {
			best = m
		}
	}
	if best == nil {
		return nil
	}
	s.mstate[best.ID].free = false // its stack entry goes stale
	s.freeCount--
	s.noteStaleFree()
	return best
}

// startReplica launches a replica of t on m.
func (s *Scheduler) startReplica(t *Task, m *grid.Machine, restart bool) {
	now := s.clock.Now()
	b := t.Bag
	if t.State == TaskPending {
		t.idleAccum += now - t.idleSince
		t.Restart = false
		b.markRunning(t)
		if t.FirstStart < 0 {
			t.FirstStart = now
		}
		if b.FirstStart < 0 {
			b.FirstStart = now
		}
	}
	r := s.newReplica()
	r.Task, r.Machine, r.Started, r.done = t, m, now, t.Checkpointed
	t.Replicas = append(t.Replicas, r)
	b.replicaCountChanged(t)
	b.running++
	s.totalRunning++
	s.replicasStarted++
	r.Seq = uint64(s.replicasStarted)
	s.mstate[m.ID].replica = r
	if s.sink != nil {
		s.emit(Mutation{Kind: MutReplicaStarted, Time: now, Bag: b.ID, Task: t.ID,
			Machine: m.ID, Seq: r.Seq, Restart: restart})
	}
	s.obs.ReplicaStarted(now, r, restart)
	if s.eng == nil {
		// Live mode: the worker holding m executes the replica and
		// drives completion through CompleteReplica.
		return
	}
	if t.Checkpointed > 0 && s.ckpt.Enabled() {
		r.Phase = PhaseRetrieving
		r.xfer = s.ckpt.StartTransfer(s.eng, s.ckpt.RetrieveTime(), s.retrieveDoneFn, r)
		return
	}
	s.beginSegment(r)
}

// beginSegment starts the replica's next compute segment, ending either at
// task completion or at the next Young checkpoint.
func (s *Scheduler) beginSegment(r *Replica) {
	r.Phase = PhaseComputing
	r.segStart = s.clock.Now()
	remainWall := (r.Task.Work - r.done) / r.Machine.Power
	if remainWall <= s.ckptInterval {
		r.ev = s.eng.ScheduleFunc(remainWall, s.segDoneFn, r)
		return
	}
	r.ev = s.eng.ScheduleFunc(s.ckptInterval, s.ckptDueFn, r)
}

// onSegmentDone fires when a replica's final compute segment ends.
func (s *Scheduler) onSegmentDone(_ *des.Engine, arg any) {
	r := arg.(*Replica)
	r.done = r.Task.Work
	s.completeTask(r)
}

// onCheckpointDue fires when a replica reaches its Young interval.
func (s *Scheduler) onCheckpointDue(_ *des.Engine, arg any) {
	r := arg.(*Replica)
	r.done += s.ckptInterval * r.Machine.Power
	s.startSave(r)
}

// onRetrieveDone fires when a replica's checkpoint retrieval completes.
func (s *Scheduler) onRetrieveDone(arg any) {
	r := arg.(*Replica)
	r.xfer = nil
	s.beginSegment(r)
}

// onSaveDone fires when a replica's checkpoint save completes.
func (s *Scheduler) onSaveDone(arg any) {
	r := arg.(*Replica)
	r.xfer = nil
	if r.done > r.Task.Checkpointed {
		r.Task.Checkpointed = r.done
	}
	s.obs.CheckpointSaved(s.clock.Now(), r.Task, r.done)
	s.beginSegment(r)
}

// startSave begins a checkpoint save of the replica's current progress.
func (s *Scheduler) startSave(r *Replica) {
	r.Phase = PhaseSaving
	r.xfer = s.ckpt.StartTransfer(s.eng, s.ckpt.SaveTime(), s.saveDoneFn, r)
}

// completeTask finishes t via winning replica r: every sibling replica is
// killed and its machine freed, per WQR-FT.
func (s *Scheduler) completeTask(r *Replica) {
	now := s.clock.Now()
	t := r.Task
	b := t.Bag
	if t.State != TaskRunning {
		panic("core: completing a task that is not running")
	}
	t.State = TaskDone
	t.DoneAt = now
	b.doneTasks++
	b.doneWork += t.Work
	b.unmarkRunning(t)
	reps := t.Replicas
	killed := len(reps) - 1
	for _, rep := range reps {
		s.cancelReplicaWork(rep)
		st := &s.mstate[rep.Machine.ID]
		st.replica = nil
		if rep.Machine.Up() {
			s.pushFree(rep.Machine)
		}
	}
	k := len(reps)
	if s.recycle {
		t.Replicas = pooledReplicas(reps) // the task's next life reuses the capacity
	} else {
		t.Replicas = nil
	}
	b.running -= k
	s.totalRunning -= k
	s.tasksCompleted++
	s.replicasKilled += killed
	s.noteBag(b) // a complete bag re-indexes nowhere: entries just go stale
	if s.sink != nil {
		s.emit(Mutation{Kind: MutTaskCompleted, Time: now, Bag: b.ID, Task: t.ID, Seq: r.Seq})
	}
	s.obs.TaskCompleted(now, t, killed)
	bagDone := b.Complete()
	if bagDone {
		b.DoneAt = now
		s.removeBag(b)
		s.completed++
		if s.sink != nil {
			s.emit(Mutation{Kind: MutBagCompleted, Time: now, Bag: b.ID})
		}
		s.obs.BagCompleted(now, b)
		if s.OnBagDone != nil {
			s.OnBagDone(b)
		}
	}
	// The replicas, and a completed bag, are unreferenced now (emit and
	// observers above copy what they need), so their storage can back the
	// dispatches and submissions to come.
	for _, rep := range reps {
		s.freeReplica(rep)
	}
	if bagDone {
		s.freeBag(b)
	}
	s.dispatch()
}

// ReplicaOn returns the replica currently hosted by m, or nil when the
// machine is free or down. The live service uses it to answer worker
// fetches and to validate reports.
func (s *Scheduler) ReplicaOn(m *grid.Machine) *Replica { return s.mstate[m.ID].replica }

// CompleteReplica finishes r's task through r, as reported by the external
// worker executing it. It is the live-mode counterpart of the simulation
// executor's timed completion event and applies the usual WQR-FT
// bookkeeping: every sibling replica is killed and its machine freed, and
// freed machines are immediately re-dispatched. It panics when called on a
// simulation scheduler or with a replica that is no longer current (callers
// must validate staleness first, see ReplicaOn).
func (s *Scheduler) CompleteReplica(r *Replica) {
	if s.eng != nil {
		panic("core: CompleteReplica is a live-mode entry point")
	}
	if s.mstate[r.Machine.ID].replica != r {
		panic("core: completing a stale replica")
	}
	r.done = r.Task.Work
	s.completeTask(r)
}

// cancelReplicaWork aborts whatever the replica is doing: its next compute
// event and any in-flight or queued checkpoint transfer. Live replicas have
// no scheduled work; their worker discovers the cancellation when its next
// report or fetch no longer matches the replica.
func (s *Scheduler) cancelReplicaWork(r *Replica) {
	if s.eng == nil {
		return
	}
	s.eng.Cancel(r.ev)
	if r.xfer != nil {
		r.xfer.Cancel(s.eng)
		r.xfer = nil
	}
}

// removeBag deletes b from the active list, preserving arrival order. The
// list is ID-ordered, so a binary search finds b; the shorter side of the
// list shifts over the gap, and the vacated slot is cleared so the backing
// array does not keep the dead bag alive.
func (s *Scheduler) removeBag(b *Bag) {
	bags := s.bags
	i := s.bagIndex(b.ID)
	if i < 0 || bags[i] != b {
		panic("core: removing unknown bag")
	}
	if last := len(bags) - 1; i < last-i {
		copy(bags[1:i+1], bags[:i])
		bags[0] = nil
		s.bags = bags[1:]
	} else {
		copy(bags[i:], bags[i+1:])
		bags[last] = nil
		s.bags = bags[:last]
	}
}

// bagIndex returns the position in s.bags of the active bag with the given
// ID, or -1. The list is ID-ordered, so a binary search finds it.
func (s *Scheduler) bagIndex(id int) int {
	i := sort.Search(len(s.bags), func(i int) bool { return s.bags[i].ID >= id })
	if i == len(s.bags) || s.bags[i].ID != id {
		return -1
	}
	return i
}

// MachineFailed implements grid.Listener: the machine's replica (if any) is
// lost; a task left with no replicas re-enters its bag's queue at the front
// for priority resubmission, restarting from its latest checkpoint.
func (s *Scheduler) MachineFailed(m *grid.Machine) {
	now := s.clock.Now()
	st := &s.mstate[m.ID]
	if st.free {
		st.free = false // its stack entry goes stale
		s.freeCount--
		s.noteStaleFree()
	}
	if s.sink != nil {
		s.emit(Mutation{Kind: MutMachineDown, Time: now, Machine: m.ID})
	}
	s.obs.MachineFailed(now, m)
	r := st.replica
	if r == nil {
		return
	}
	if s.cfg.SuspendOnFailure {
		s.suspendReplica(r)
		return
	}
	s.failures++
	s.cancelReplicaWork(r)
	st.replica = nil
	t := r.Task
	b := t.Bag
	removeReplica(t, r)
	b.replicaCountChanged(t)
	b.running--
	s.totalRunning--
	t.Failures++
	s.obs.ReplicaFailed(now, t, m)
	if t.State == TaskRunning && len(t.Replicas) == 0 {
		b.unmarkRunning(t)
		t.idleSince = now
		t.Restart = true
		b.enqueuePending(t, true)
		s.pendingTotal++
		s.noteQueued(t)
	}
	s.noteBag(b)
	s.freeReplica(r)
	// A newly-pending task may be servable by machines that were idle
	// for lack of schedulable work.
	s.dispatch()
}

// MachineRepaired implements grid.Listener. A suspended replica (see
// SchedConfig.SuspendOnFailure) resumes; otherwise the machine rejoins the
// free pool.
func (s *Scheduler) MachineRepaired(m *grid.Machine) {
	if s.sink != nil {
		s.emit(Mutation{Kind: MutMachineUp, Time: s.clock.Now(), Machine: m.ID})
	}
	s.obs.MachineRepaired(s.clock.Now(), m)
	if r := s.mstate[m.ID].replica; r != nil && r.Suspended {
		s.resumeReplica(r)
		return
	}
	s.pushFree(m)
	s.dispatch()
}

// suspendReplica freezes a replica in place on its failed machine,
// realizing the partial progress of the interrupted compute segment.
// Interrupted checkpoint transfers are abandoned and redone on resume.
func (s *Scheduler) suspendReplica(r *Replica) {
	if r.Phase == PhaseComputing {
		progress := (s.clock.Now() - r.segStart) * r.Machine.Power
		r.done += progress
		if r.done > r.Task.Work {
			r.done = r.Task.Work
		}
	}
	s.cancelReplicaWork(r)
	r.Suspended = true
	s.suspensions++
}

// resumeReplica continues a suspended replica where it left off.
func (s *Scheduler) resumeReplica(r *Replica) {
	r.Suspended = false
	switch r.Phase {
	case PhaseRetrieving:
		r.xfer = s.ckpt.StartTransfer(s.eng, s.ckpt.RetrieveTime(), s.retrieveDoneFn, r)
	case PhaseSaving:
		s.startSave(r)
	default:
		s.beginSegment(r)
	}
}

var _ grid.Listener = (*Scheduler)(nil)

// sortedWorks returns a stably-sorted copy of works.
func sortedWorks(works []float64, less func(a, b float64) bool) []float64 {
	out := make([]float64, len(works))
	copy(out, works)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func removeReplica(t *Task, r *Replica) {
	for i, x := range t.Replicas {
		if x == r {
			last := len(t.Replicas) - 1
			t.Replicas[i] = t.Replicas[last]
			t.Replicas = t.Replicas[:last]
			return
		}
	}
	panic("core: removing unknown replica")
}

// CheckInvariants panics with a description if internal bookkeeping is
// inconsistent; tests call it between events.
func (s *Scheduler) CheckInvariants() {
	running := 0
	pending := 0
	for i, b := range s.bags {
		if i > 0 && b.ID <= s.bags[i-1].ID {
			panic(fmt.Sprintf("core: active bags out of ID order: %d after %d", b.ID, s.bags[i-1].ID))
		}
		br := 0
		runTasks := 0
		for _, t := range b.Tasks {
			switch t.State {
			case TaskRunning:
				if len(t.Replicas) == 0 {
					panic("core: running task with no replicas")
				}
				if t.runIdx < 0 || t.runIdx >= b.runHeap.len() || b.runHeap.es[t.runIdx].t != t {
					panic(fmt.Sprintf("core: task %d/%d has bad run-heap index %d",
						b.ID, t.ID, t.runIdx))
				}
				if b.runHeap.es[t.runIdx].key != runKey(t) {
					panic(fmt.Sprintf("core: task %d/%d has stale run-heap key",
						b.ID, t.ID))
				}
				br += len(t.Replicas)
				runTasks++
			case TaskPending:
				if len(t.Replicas) != 0 {
					panic("core: pending task with replicas")
				}
				if t.runIdx != -1 {
					panic("core: pending task indexed in run heap")
				}
				pending++
			case TaskDone:
				if len(t.Replicas) != 0 {
					panic("core: done task with replicas")
				}
				if t.runIdx != -1 {
					panic("core: done task indexed in run heap")
				}
			}
		}
		if br != b.running {
			panic(fmt.Sprintf("core: bag %d running count %d != %d", b.ID, b.running, br))
		}
		if runTasks != b.runHeap.len() {
			panic(fmt.Sprintf("core: bag %d run heap holds %d tasks, state says %d",
				b.ID, b.runHeap.len(), runTasks))
		}
		if b.PendingCount() != pendingInBag(b) {
			panic(fmt.Sprintf("core: bag %d pending queue %d != state count %d",
				b.ID, b.PendingCount(), pendingInBag(b)))
		}
		running += br
	}
	if running != s.totalRunning {
		panic(fmt.Sprintf("core: total running %d != %d", s.totalRunning, running))
	}
	if pending != s.pendingTotal {
		panic(fmt.Sprintf("core: total pending %d != %d", s.pendingTotal, pending))
	}
	free := 0
	busy := 0
	for i := range s.mstate {
		if s.mstate[i].free {
			if !s.grid.Machines[i].Up() {
				panic("core: down machine marked free")
			}
			free++
		}
		if s.mstate[i].replica != nil {
			if s.mstate[i].free {
				panic("core: machine both free and busy")
			}
			busy++
		}
	}
	if free != s.freeCount {
		panic(fmt.Sprintf("core: free count %d != %d", s.freeCount, free))
	}
	if busy != s.totalRunning {
		panic(fmt.Sprintf("core: busy machines %d != running replicas %d", busy, s.totalRunning))
	}
}

func pendingInBag(b *Bag) int {
	n := 0
	for _, t := range b.Tasks {
		if t.State == TaskPending {
			n++
		}
	}
	return n
}
