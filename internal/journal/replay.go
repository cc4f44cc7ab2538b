package journal

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"botgrid/internal/core"
)

// WorkerSnapshot is the durable state of one worker registration: the
// binding of a worker ID to a grid machine slot, with the coarsened last
// lease-renewal time recovery uses to re-arm expiry deadlines.
type WorkerSnapshot struct {
	ID       string  `json:"id"`
	Machine  int     `json:"machine"`
	Power    float64 `json:"power"`
	LastSeen float64 `json:"last_seen"`
}

// CompletedBag archives a finished bag: the scheduler drops completed bags,
// but the service keeps serving their final status after recovery.
type CompletedBag struct {
	ID          int     `json:"id"`
	Arrival     float64 `json:"arrival"`
	Granularity float64 `json:"granularity"`
	DoneAt      float64 `json:"done_at"`
	Tasks       int     `json:"tasks"`
}

// State is the full durable state of the dispatch service as plain data:
// the scheduler snapshot plus the service-level worker table and completed
// bag archive. Recovery replays journal records into a State, then the
// service promotes Sched via core.RestoreLiveScheduler.
//
// Apply keeps live replicas in a private index, not in Sched.Replicas.
// Once a State has applied records, Sched.Replicas is current only after
// Open returns it or EncodeSnapshot or WriteSnapshot encodes it.
type State struct {
	// Time is the service clock when the snapshot was captured.
	Time float64 `json:"time"`
	// Sched is the scheduler's durable state.
	Sched *core.SchedulerSnapshot `json:"sched"`
	// Workers lists worker registrations in registration order.
	Workers []WorkerSnapshot `json:"workers,omitempty"`
	// Completed archives finished bags in completion order.
	Completed []CompletedBag `json:"completed,omitempty"`
	// Service is an opaque blob the service layer round-trips through
	// snapshots (dispatch counters and the like); the journal does not
	// interpret it.
	Service json.RawMessage `json:"service,omitempty"`

	// MaxTime is the largest event time seen across the snapshot and every
	// replayed record; the recovered clock must not run behind it.
	MaxTime float64 `json:"-"`

	// ix is Apply's private lookup structure over the live replicas and
	// Workers, built on first use from whatever the State holds.
	ix *replayIndex
}

// NewState returns an empty pre-boot State.
func NewState() *State {
	return &State{Sched: &core.SchedulerSnapshot{}}
}

func (st *State) observe(t float64) {
	if t > st.MaxTime {
		st.MaxTime = t
	}
}

// bag returns a pointer to the active bag with the given ID.
func (st *State) bag(id int) (*core.BagSnapshot, error) {
	for i := range st.Sched.Bags {
		if st.Sched.Bags[i].ID == id {
			return &st.Sched.Bags[i], nil
		}
	}
	return nil, fmt.Errorf("journal: replay: unknown bag %d", id)
}

// replayIndex lets Apply find a live replica by machine or by task, and a
// worker by ID or slot, without scanning the live state.
//
// Live replicas sit in a slot table. A removed replica's slot goes on a
// free list for the next start to reuse, so nothing shifts and a warm
// replay allocates nothing per replica. Each slot carries the stamp that
// orders it among the live replicas and links to the next-older live
// replica of its task. Sched.Replicas is not touched until publish
// rebuilds it.
type replayIndex struct {
	sched *core.SchedulerSnapshot // the snapshot this index describes
	pub   []core.ReplicaSnapshot  // Sched.Replicas as last built from or published

	slots []replicaSlot
	free  []int  // empty slots
	stamp uint64 // the last stamp issued

	machine map[int]int   // machine -> slot of the replica it runs
	heads   map[int][]int // bag -> per task, slot+1 of its newest replica (0: none)
	spare   [][]int       // heads of completed bags, for later bags to reuse

	// Workers only ever grows, so positions are stable.
	workers  []WorkerSnapshot // Workers as last indexed
	workerID map[string]int   // ID -> position in Workers
	slot     map[int]int      // machine -> position in Workers
}

type replicaSlot struct {
	rep   core.ReplicaSnapshot
	stamp uint64 // insertion order (0: free slot)
	prev  int    // slot+1 of the next-older live replica of the same task (0: none)
}

// describes reports whether ix still indexes st: st holds the Sched,
// Replicas and Workers Apply last left behind, not a decoded snapshot, a
// fresh State or a test's direct edit. In-place edits of those slices
// between Apply calls are not detected.
func (ix *replayIndex) describes(st *State) bool {
	return ix != nil && ix.sched == st.Sched &&
		sameSlice(st.Sched.Replicas, ix.pub) && sameSlice(st.Workers, ix.workers)
}

// index returns st's replay index, building it from the State's own
// replicas and workers when it has none that describes it.
func (st *State) index() (*replayIndex, error) {
	if st.ix.describes(st) {
		return st.ix, nil
	}
	s := st.Sched
	ix := &replayIndex{
		sched:    s,
		pub:      s.Replicas,
		slots:    make([]replicaSlot, 0, len(s.Replicas)),
		machine:  make(map[int]int, len(s.Replicas)),
		heads:    make(map[int][]int),
		workers:  st.Workers,
		workerID: make(map[string]int, len(st.Workers)),
		slot:     make(map[int]int, len(st.Workers)),
	}
	for _, rep := range s.Replicas {
		if _, dup := ix.machine[rep.Machine]; dup {
			return nil, fmt.Errorf("journal: replay: machine %d runs two replicas", rep.Machine)
		}
		b, err := st.bag(rep.Bag)
		if err != nil {
			return nil, err
		}
		if rep.Task < 0 || rep.Task >= len(b.Tasks) || b.Tasks[rep.Task].State != core.TaskRunning {
			return nil, fmt.Errorf("journal: replay: replica on task %d/%d, which is not running", rep.Bag, rep.Task)
		}
		ix.add(rep, ix.taskHeads(rep.Bag, len(b.Tasks)))
	}
	// Apply resolves a duplicated ID or slot to its first entry, as a scan
	// would.
	for i, w := range st.Workers {
		if _, ok := ix.workerID[w.ID]; !ok {
			ix.workerID[w.ID] = i
		}
		if _, ok := ix.slot[w.Machine]; !ok {
			ix.slot[w.Machine] = i
		}
	}
	st.ix = ix
	return ix, nil
}

// publish rebuilds Sched.Replicas from the replay index: the live
// replicas in the order they started, which snapshots and
// core.RestoreLiveScheduler keep as each task's replica order. Every
// reader of a replayed State calls it first; Apply never does.
func (st *State) publish() {
	ix := st.ix
	if !ix.describes(st) {
		return // Sched.Replicas is the State's own and already current
	}
	live := make([]replicaSlot, 0, len(ix.machine))
	for _, sl := range ix.slots {
		if sl.stamp != 0 {
			live = append(live, sl)
		}
	}
	slices.SortFunc(live, func(a, b replicaSlot) int { return cmp.Compare(a.stamp, b.stamp) })
	reps := ix.pub[:0]
	// A list that once held a replica stays non-nil even when empty:
	// snapshots encode nil and empty differently.
	if cap(reps) < len(live) || (reps == nil && len(ix.slots) > 0) {
		reps = make([]core.ReplicaSnapshot, 0, len(live))
	}
	for _, sl := range live {
		reps = append(reps, sl.rep)
	}
	ix.pub, st.Sched.Replicas = reps, reps
}

// sameSlice reports whether a and b are the same view of the same array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// taskHeads returns the per-task newest-replica slots of bag. A bag's
// first replica takes the heads a completed bag left, so heads and spares
// together never outnumber the most bags ever running at once.
func (ix *replayIndex) taskHeads(bag, tasks int) []int {
	h, ok := ix.heads[bag]
	if !ok {
		if n := len(ix.spare); n > 0 {
			h, ix.spare = ix.spare[n-1], ix.spare[:n-1]
		}
		if cap(h) < tasks {
			h = make([]int, tasks)
		} else {
			h = h[:tasks]
			clear(h)
		}
		ix.heads[bag] = h
	}
	return h
}

// add files rep in a free slot as the newest replica of its task.
func (ix *replayIndex) add(rep core.ReplicaSnapshot, heads []int) {
	i := len(ix.slots)
	if n := len(ix.free); n > 0 {
		i, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		ix.slots = append(ix.slots, replicaSlot{})
	}
	ix.stamp++
	ix.slots[i] = replicaSlot{rep: rep, stamp: ix.stamp, prev: heads[rep.Task]}
	heads[rep.Task] = i + 1
	ix.machine[rep.Machine] = i
}

// remove frees slot i and returns its replica with the slot+1 of its
// next-older sibling. The caller unlinks it from its task's chain.
func (ix *replayIndex) remove(i int) (core.ReplicaSnapshot, int) {
	rep, prev := ix.slots[i].rep, ix.slots[i].prev
	ix.slots[i] = replicaSlot{}
	ix.free = append(ix.free, i)
	delete(ix.machine, rep.Machine)
	return rep, prev
}

// Apply folds one journal record into the state. Errors mean the log
// contradicts the state it is being replayed onto — corruption or a bug —
// and recovery must stop. A State whose replicas contradict its own bags or
// share a machine is refused on the first record that needs the index.
func (st *State) Apply(r *Record) error {
	st.observe(r.Time)
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

func (st *State) applyBagSubmitted(r *Record) error {
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

func (st *State) applyReplicaStarted(r *Record) error {
	ix, err := st.index()
	if err != nil {
		return err
	}
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
	if _, busy := ix.machine[r.Machine]; busy {
		return fmt.Errorf("journal: replay: machine %d already busy at seq %d", r.Machine, r.Seq)
	}
	ix.add(core.ReplicaSnapshot{
		Seq: r.Seq, Bag: r.Bag, Task: r.Task, Machine: r.Machine, Started: r.Time,
	}, ix.taskHeads(r.Bag, len(b.Tasks)))
	if int(r.Seq) > s.ReplicasStarted {
		s.ReplicasStarted = int(r.Seq)
	}
	return nil
}

func (st *State) applyTaskCompleted(r *Record) error {
	ix, err := st.index()
	if err != nil {
		return err
	}
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
	// Every replica of the task goes: the accepted result supersedes its
	// siblings.
	dropped := 0
	if heads := ix.heads[r.Bag]; heads != nil {
		for s := heads[r.Task]; s != 0; dropped++ {
			_, s = ix.remove(s - 1)
		}
		heads[r.Task] = 0
	}
	if dropped == 0 {
		return fmt.Errorf("journal: replay: completed task %d/%d had no replica", r.Bag, r.Task)
	}
	t.State = core.TaskDone
	t.DoneAt = r.Time
	st.Sched.TasksCompleted++
	st.Sched.ReplicasKilled += dropped - 1
	return nil
}

func (st *State) applyBagCompleted(r *Record) error {
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
	if ix := st.ix; ix != nil {
		if h, ok := ix.heads[r.Bag]; ok { // every task is done, so none has a replica
			delete(ix.heads, r.Bag)
			ix.spare = append(ix.spare, h)
		}
	}
	return nil
}

func (st *State) applyMachineDown(r *Record) error {
	ix, err := st.index()
	if err != nil {
		return err
	}
	i, ok := ix.machine[r.Machine]
	if !ok {
		// A machine with no replica going down needs no state change.
		return nil
	}
	rep, prev := ix.remove(i)
	// Unlink it from its task's chain of replicas, newest first.
	heads := ix.heads[rep.Bag]
	if heads[rep.Task] == i+1 {
		heads[rep.Task] = prev
	} else {
		for s := heads[rep.Task]; ; {
			sl := &ix.slots[s-1]
			if sl.prev == i+1 {
				sl.prev = prev
				break
			}
			s = sl.prev
		}
	}
	s := st.Sched
	s.Failures++
	b, err := st.bag(rep.Bag)
	if err != nil {
		return err
	}
	t := &b.Tasks[rep.Task]
	t.Failures++
	if heads[rep.Task] == 0 {
		// Last replica lost: the task re-enters its bag's queue at the
		// front (WQR-FT resubmission priority).
		t.State = core.TaskPending
		t.Restart = true
		t.IdleSince = r.Time
		b.Pending = slices.Insert(b.Pending, 0, rep.Task)
	}
	return nil
}

func (st *State) applyWorkerRegistered(r *Record) error {
	ix, err := st.index()
	if err != nil {
		return err
	}
	if i, ok := ix.workerID[r.Worker]; ok {
		w := &st.Workers[i]
		if w.Machine != r.Machine {
			return fmt.Errorf("journal: replay: worker %q moved slot %d -> %d",
				r.Worker, w.Machine, r.Machine)
		}
		w.Power = r.Power
		w.LastSeen = r.Time
		return nil
	}
	if i, ok := ix.slot[r.Machine]; ok {
		return fmt.Errorf("journal: replay: slot %d taken by %q, claimed by %q",
			r.Machine, st.Workers[i].ID, r.Worker)
	}
	ix.workerID[r.Worker] = len(st.Workers)
	ix.slot[r.Machine] = len(st.Workers)
	st.Workers = append(st.Workers, WorkerSnapshot{
		ID: r.Worker, Machine: r.Machine, Power: r.Power, LastSeen: r.Time,
	})
	ix.workers = st.Workers
	return nil
}

func (st *State) applyWorkerSeen(r *Record) error {
	ix, err := st.index()
	if err != nil {
		return err
	}
	i, ok := ix.slot[r.Machine]
	if !ok {
		return fmt.Errorf("journal: replay: seen record for unregistered slot %d", r.Machine)
	}
	if w := &st.Workers[i]; r.Time > w.LastSeen {
		w.LastSeen = r.Time
	}
	return nil
}
