// Package core implements the paper's primary contribution: two-step
// scheduling of multiple Bag-of-Tasks applications on a Desktop Grid.
//
// On every scheduling opportunity (a machine becoming free, a failure
// returning a task to the queue, a repair, an arrival) the scheduler first
// performs *bag selection* with a pluggable Policy — the five knowledge-free
// policies of the paper plus several extensions — and then *individual bag
// scheduling* with WQR-FT: WorkQueue with Replication, checkpointing and
// automatic resubmission of failed tasks (Anglano & Canonico, EGC 2005).
package core

import "math"

// TaskState is the lifecycle state of a task.
type TaskState int

const (
	// TaskPending means the task has no running replica and waits in its
	// bag's queue (either never started or returned by a failure).
	TaskPending TaskState = iota
	// TaskRunning means at least one replica of the task is executing.
	TaskRunning
	// TaskDone means some replica completed the task.
	TaskDone
)

// String returns a short state name.
func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	default:
		return "invalid"
	}
}

// Task is one independent unit of work inside a bag.
type Task struct {
	// ID is the task's index within its bag.
	ID int
	// Bag is the owning bag.
	Bag *Bag
	// Work is the task's total duration on the reference machine
	// (power 1), in seconds.
	Work float64
	// Checkpointed is the amount of Work safely stored on the checkpoint
	// server; a restarting replica resumes from here.
	Checkpointed float64

	// State is the task lifecycle state.
	State TaskState
	// Replicas holds the currently running replicas.
	Replicas []*Replica
	// Restart marks a task that lost all replicas to failures and awaits
	// resubmission (such tasks re-enter the queue at the front).
	Restart bool

	// FirstStart is when the first replica started (-1 if never).
	FirstStart float64
	// DoneAt is the completion time (-1 if not complete).
	DoneAt float64
	// Failures counts replica losses due to machine failures.
	Failures int

	// idleAccum is the total time the task has spent with no running
	// replica, up to idleSince (exclusive of the current idle stretch).
	idleAccum float64
	// idleSince is when the current idle stretch began (valid while
	// State == TaskPending).
	idleSince float64
	// pendingEpoch invalidates stale idle-index entries (lazy deletion).
	pendingEpoch uint32
	// runIdx is the task's position in its bag's running-task heap,
	// -1 while not running.
	runIdx int
}

// IdleTime returns the task's total replica-less waiting time as of now —
// the LongIdle policy's notion of task waiting time.
func (t *Task) IdleTime(now float64) float64 {
	if t.State == TaskPending {
		return t.idleAccum + now - t.idleSince
	}
	return t.idleAccum
}

// idleKey is a time-invariant ordering key: among currently pending tasks,
// IdleTime differences are constant, so comparing idleAccum − idleSince
// ranks tasks by IdleTime at any instant. Neither term changes while a
// task is pending, so the key is frozen for the whole pending stretch.
func (t *Task) idleKey() float64 { return t.idleAccum - t.idleSince }

// Bag holds one BoT application's tasks and the per-bag queue the central
// scheduler maintains for it (Section 3.1 of the paper).
type Bag struct {
	// ID numbers bags in arrival order.
	ID int
	// Arrival is the submission time.
	Arrival float64
	// Granularity is the BoT type the bag was generated from.
	Granularity float64
	// Tasks lists every task of the bag.
	Tasks []*Task

	// FirstStart is when the bag's first replica started (-1 if never).
	FirstStart float64
	// DoneAt is when the bag's last task completed (-1 while active).
	DoneAt float64

	pending   pendingQueue
	runHeap   runHeap // running tasks keyed by (replica count, task ID)
	doneTasks int
	running   int     // running replicas across all tasks
	doneWork  float64 // reference-seconds of completed tasks
	totalWork float64

	// stamp is the bag's schedulability-state version: the scheduler
	// bumps it whenever any input of the schedulability index changes
	// (pending count, replica counts, running total, remaining work,
	// removal). Policy index entries snapshot it for lazy invalidation.
	stamp uint64
}

// reset readies b's storage as a new bag of works with every task pending
// as of arrival. b.Tasks must already hold len(works) tasks, fresh or
// recycled (see Scheduler.takeBag). A recycled bag keeps its pending ring
// and run-heap capacity, and a recycled task its Replicas capacity. The
// bag's stamp and each task's pending epoch carry over and are never reset:
// index entries left from the storage's earlier life then stay stale for
// good (bagRef.valid, taskRef.valid).
//
//botlint:hotpath
func (b *Bag) reset(id int, arrival, granularity float64, works []float64) {
	*b = Bag{
		ID:          id,
		Arrival:     arrival,
		Granularity: granularity,
		Tasks:       b.Tasks,
		FirstStart:  -1,
		DoneAt:      -1,
		pending:     pendingQueue{buf: b.pending.buf},
		runHeap:     runHeap{es: b.runHeap.es[:0]},
		stamp:       b.stamp,
	}
	for i, w := range works {
		t := b.Tasks[i]
		*t = Task{
			ID:           i,
			Bag:          b,
			Work:         w,
			Replicas:     t.Replicas[:0],
			FirstStart:   -1,
			DoneAt:       -1,
			idleSince:    arrival,
			pendingEpoch: t.pendingEpoch,
			runIdx:       -1,
		}
		b.totalWork += w
		b.enqueuePending(t, false)
	}
}

// enqueuePending puts t into the bag's queue; front selects resubmission
// priority (failed tasks are rescheduled before never-run ones, mirroring
// the WQR-FT rule that failed replicas get priority).
func (b *Bag) enqueuePending(t *Task, front bool) {
	t.State = TaskPending
	t.pendingEpoch++
	if front {
		b.pending.pushFront(t)
	} else {
		b.pending.pushBack(t)
	}
}

// popPending removes and returns the next pending task (resubmissions
// first, then queue order), or nil.
func (b *Bag) popPending() *Task { return b.pending.pop() }

// HasPending reports whether any task waits with no running replica.
func (b *Bag) HasPending() bool { return b.pending.len() > 0 }

// PendingCount returns the number of queued tasks.
func (b *Bag) PendingCount() int { return b.pending.len() }

// Complete reports whether every task has finished.
func (b *Bag) Complete() bool { return b.doneTasks == len(b.Tasks) }

// DoneTasks returns the number of completed tasks.
func (b *Bag) DoneTasks() int { return b.doneTasks }

// RunningReplicas returns the number of replicas currently executing.
func (b *Bag) RunningReplicas() int { return b.running }

// RemainingWork returns reference-seconds of work in incomplete tasks.
func (b *Bag) RemainingWork() float64 { return b.totalWork - b.doneWork }

// TotalWork returns the bag's total work.
func (b *Bag) TotalWork() float64 { return b.totalWork }

// replicable returns the running task with the fewest replicas, provided it
// is below the threshold; nil otherwise. Ties break toward the lowest task
// ID for determinism. O(1): the running-task heap keeps the answer on top.
func (b *Bag) replicable(threshold int) *Task {
	if t := b.runHeap.top(); t != nil && len(t.Replicas) < threshold {
		return t
	}
	return nil
}

// minRunReplicas returns the smallest replica count among running tasks,
// or MaxInt when the bag has none.
func (b *Bag) minRunReplicas() int {
	if t := b.runHeap.top(); t != nil {
		return len(t.Replicas)
	}
	return math.MaxInt
}

// schedKey is the bag's schedulability key: the smallest replication
// threshold that would NOT make the bag schedulable, minus the pending
// fast path. A bag is schedulable under threshold thr iff schedKey < thr:
// 0 when a pending task exists (always schedulable), the minimum replica
// count among running tasks otherwise, MaxInt when complete.
func (b *Bag) schedKey() int {
	if b.pending.len() > 0 {
		return 0
	}
	return b.minRunReplicas()
}

// Schedulable reports whether the bag can use one more machine under the
// given replication threshold. O(1) via the incremental schedulability
// state (pending queue length + running-task heap top).
func (b *Bag) Schedulable(threshold int) bool {
	return b.schedKey() < threshold
}

// markRunning moves a pending task to the running set.
func (b *Bag) markRunning(t *Task) {
	t.State = TaskRunning
	b.runHeap.push(t)
}

// unmarkRunning removes t from the running set (after completion or after
// losing its last replica).
func (b *Bag) unmarkRunning(t *Task) {
	if t.runIdx >= 0 {
		b.runHeap.remove(t)
	}
}

// replicaCountChanged restores t's position in the running-task heap after
// a replica was added or removed.
func (b *Bag) replicaCountChanged(t *Task) {
	if t.runIdx >= 0 {
		b.runHeap.fix(t)
	}
}

// pendingQueue is a FIFO of tasks with a priority front for resubmissions,
// implemented as a growable ring buffer.
type pendingQueue struct {
	buf        []*Task
	head, size int
}

func (q *pendingQueue) len() int { return q.size }

func (q *pendingQueue) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]*Task, n)
	for i := 0; i < q.size; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

func (q *pendingQueue) pushBack(t *Task) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = t
	q.size++
}

func (q *pendingQueue) pushFront(t *Task) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1 + len(q.buf)) % len(q.buf)
	q.buf[q.head] = t
	q.size++
}

// remove takes the queued task t out of the queue wherever it sits; the
// tasks ahead of it move back one place, so the order holds. At the front
// it is pop.
func (q *pendingQueue) remove(t *Task) {
	n := len(q.buf)
	i := 0
	for q.buf[(q.head+i)%n] != t {
		i++
	}
	for ; i > 0; i-- {
		q.buf[(q.head+i)%n] = q.buf[(q.head+i-1)%n]
	}
	q.pop()
}

// forEach visits the queued tasks in dispatch order without mutating the
// queue (snapshot capture).
func (q *pendingQueue) forEach(f func(*Task)) {
	for i := 0; i < q.size; i++ {
		f(q.buf[(q.head+i)%len(q.buf)])
	}
}

// peek returns the next task pop would return without removing it.
func (q *pendingQueue) peek() *Task {
	if q.size == 0 {
		return nil
	}
	return q.buf[q.head]
}

func (q *pendingQueue) pop() *Task {
	if q.size == 0 {
		return nil
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return t
}

// runHeap is an intrusive indexed min-heap of a bag's running tasks,
// ordered by (replica count, task ID). The top answers both replicable()
// and minRunReplicas() in O(1); replica-count changes restore the heap in
// O(log n) via the position each task tracks in runIdx. Entries carry the
// key inline — replica count in the high bits, task ID in the low — so
// sift compares read the heap's own contiguous array instead of
// dereferencing two tasks per comparison.
type runHeap struct {
	es []runEntry
}

// runEntry is one running task with its ordering key held inline.
type runEntry struct {
	key uint64
	t   *Task
}

// runKey packs t's heap key. Task IDs are bag-local and far below 2^32,
// so the packed order equals the lexicographic (replica count, ID) order.
func runKey(t *Task) uint64 {
	return uint64(len(t.Replicas))<<32 | uint64(uint32(t.ID))
}

func (h *runHeap) len() int { return len(h.es) }

// top returns the running task with the fewest replicas (lowest ID on
// ties), or nil when empty.
func (h *runHeap) top() *Task {
	if len(h.es) == 0 {
		return nil
	}
	return h.es[0].t
}

func (h *runHeap) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.es[i].t.runIdx = i
	h.es[j].t.runIdx = j
}

func (h *runHeap) push(t *Task) {
	t.runIdx = len(h.es)
	h.es = append(h.es, runEntry{key: runKey(t), t: t})
	h.up(t.runIdx)
}

func (h *runHeap) remove(t *Task) {
	i, n := t.runIdx, len(h.es)-1
	if i != n {
		h.swap(i, n)
	}
	h.es[n] = runEntry{}
	h.es = h.es[:n]
	if i < n {
		if !h.down(i) {
			h.up(i)
		}
	}
	t.runIdx = -1
}

// fix re-derives t's key and restores the heap property around it after
// its replica count changed.
func (h *runHeap) fix(t *Task) {
	i := t.runIdx
	h.es[i].key = runKey(t)
	if !h.down(i) {
		h.up(i)
	}
}

func (h *runHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.es[i].key >= h.es[parent].key {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *runHeap) down(i int) bool {
	start := i
	n := len(h.es)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.es[right].key < h.es[left].key {
			best = right
		}
		if h.es[best].key >= h.es[i].key {
			break
		}
		h.swap(i, best)
		i = best
	}
	return i > start
}
