package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// newBag builds a bag of works on fresh storage, outside any scheduler,
// with all tasks pending as of arrival.
func newBag(id int, arrival, granularity float64, works []float64) *Bag {
	var s Scheduler
	b := s.takeBag(len(works))
	b.reset(id, arrival, granularity, works)
	return b
}

func TestPendingQueueFIFO(t *testing.T) {
	var q pendingQueue
	tasks := make([]*Task, 20)
	for i := range tasks {
		tasks[i] = &Task{ID: i}
		q.pushBack(tasks[i])
	}
	if q.len() != 20 {
		t.Fatalf("len = %d, want 20", q.len())
	}
	for i := 0; i < 20; i++ {
		got := q.pop()
		if got != tasks[i] {
			t.Fatalf("pop %d returned task %d", i, got.ID)
		}
	}
	if q.pop() != nil {
		t.Fatal("pop of empty queue should be nil")
	}
}

func TestPendingQueueFrontPriority(t *testing.T) {
	var q pendingQueue
	a, b, c := &Task{ID: 0}, &Task{ID: 1}, &Task{ID: 2}
	q.pushBack(a)
	q.pushBack(b)
	q.pushFront(c) // failed-task resubmission
	if got := q.pop(); got != c {
		t.Fatalf("front-pushed task not popped first (got %d)", got.ID)
	}
	if q.pop() != a || q.pop() != b {
		t.Fatal("FIFO order broken after pushFront")
	}
}

func TestPendingQueueGrowthAcrossWrap(t *testing.T) {
	// Interleave pushes and pops so head wraps, then force growth.
	var q pendingQueue
	next := 0
	pop := 0
	mk := func() *Task { next++; return &Task{ID: next - 1} }
	for i := 0; i < 6; i++ {
		q.pushBack(mk())
	}
	for i := 0; i < 4; i++ {
		if got := q.pop(); got.ID != pop {
			t.Fatalf("pop = %d, want %d", got.ID, pop)
		}
		pop++
	}
	for i := 0; i < 20; i++ { // forces grow with wrapped head
		q.pushBack(mk())
	}
	for q.len() > 0 {
		if got := q.pop(); got.ID != pop {
			t.Fatalf("pop = %d, want %d (after growth)", got.ID, pop)
		}
		pop++
	}
	if pop != next {
		t.Fatalf("popped %d of %d", pop, next)
	}
}

func TestQuickPendingQueueModel(t *testing.T) {
	// Model-check the ring buffer against a plain slice.
	f := func(ops []uint8) bool {
		var q pendingQueue
		var model []*Task
		id := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				tk := &Task{ID: id}
				id++
				q.pushBack(tk)
				model = append(model, tk)
			case 1:
				tk := &Task{ID: id}
				id++
				q.pushFront(tk)
				model = append([]*Task{tk}, model...)
			case 2:
				got := q.pop()
				if len(model) == 0 {
					if got != nil {
						return false
					}
					continue
				}
				want := model[0]
				model = model[1:]
				if got != want {
					return false
				}
			}
			if q.len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIdleIdxOrdering drains LongIdle's task index over four bags whose
// tasks share five idle keys, so most of the order rests on the tie: idle
// key descending, then bag ID, then task ID. Bag 70000 needs more than 16
// bits of the packed tie.
func TestIdleIdxOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var want []*Task
	for _, id := range []int{70000, 2, 0, 1} {
		b := &Bag{ID: id}
		for i := 0; i < 25; i++ {
			tk := &Task{ID: i, Bag: b, idleSince: float64(r.Intn(5)) * 250}
			tk.pendingEpoch = 1
			want = append(want, tk)
		}
	}
	var h lazyHeap[taskRef]
	r.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	for _, tk := range want {
		pushIdle(&h, tk)
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.idleKey() != b.idleKey() {
			return a.idleKey() > b.idleKey()
		}
		if a.Bag.ID != b.Bag.ID {
			return a.Bag.ID < b.Bag.ID
		}
		return a.ID < b.ID
	})
	for i, w := range want {
		got := peekTask(&h)
		if got == nil {
			t.Fatalf("index drained after %d of %d entries", i, len(want))
		}
		if got != w {
			t.Fatalf("entry %d: bag %d task %d (key %g), want bag %d task %d (key %g)",
				i, got.Bag.ID, got.ID, got.idleKey(), w.Bag.ID, w.ID, w.idleKey())
		}
		h.popTop()
	}
	if got := peekTask(&h); got != nil {
		t.Fatalf("index holds task %d after draining %d entries", got.ID, len(want))
	}
}

// peekTask returns the task on top of a LongIdle index, or nil.
func peekTask(h *lazyHeap[taskRef]) *Task {
	e, _ := h.peek() // e.item.t is nil when the index is empty
	return e.item.t
}

func TestIdleIdxLazyDeletion(t *testing.T) {
	bag := newBag(0, 0, 1000, []float64{100, 100, 100})
	var h lazyHeap[taskRef]
	for _, tk := range bag.Tasks {
		pushIdle(&h, tk)
	}
	// Pop one task via the queue; its index entry becomes stale.
	tk := bag.popPending()
	bag.markRunning(tk)
	top := peekTask(&h)
	if top == tk {
		t.Fatal("peek returned a running task")
	}
	if top == nil || top.State != TaskPending {
		t.Fatalf("peek inconsistent: %v", top)
	}
	// Re-enqueueing bumps the epoch: the old entry must stay stale until
	// the new push lands.
	t2 := bag.popPending()
	bag.markRunning(t2)
	bag.unmarkRunning(t2)
	bag.enqueuePending(t2, true)
	if got := peekTask(&h); got == nil || got == t2 {
		t.Fatalf("stale epoch entry surfaced: %v", got)
	}
	pushIdle(&h, t2)
	if got := peekTask(&h); got == nil || got.State != TaskPending {
		t.Fatalf("peek after re-push inconsistent: %v", got)
	}
}

func TestRunHeapTracksReplicaCounts(t *testing.T) {
	bag := newBag(0, 0, 1000, []float64{100, 100, 100, 100})
	var ts []*Task
	for i := 0; i < 4; i++ {
		tk := bag.popPending()
		bag.markRunning(tk)
		tk.Replicas = append(tk.Replicas, &Replica{Task: tk})
		bag.replicaCountChanged(tk)
		ts = append(ts, tk)
	}
	// All at one replica: the lowest task ID is on top.
	if top := bag.runHeap.top(); top != ts[0] {
		t.Fatalf("top = task %d, want 0", top.ID)
	}
	// Replicate task 0: task 1 becomes the least-replicated.
	ts[0].Replicas = append(ts[0].Replicas, &Replica{Task: ts[0]})
	bag.replicaCountChanged(ts[0])
	if top := bag.runHeap.top(); top != ts[1] {
		t.Fatalf("top = task %d after replicating 0, want 1", top.ID)
	}
	if bag.minRunReplicas() != 1 {
		t.Fatalf("minRunReplicas = %d, want 1", bag.minRunReplicas())
	}
	// Drop task 1's replica count to zero (failure path shape).
	ts[1].Replicas = nil
	bag.replicaCountChanged(ts[1])
	if top := bag.runHeap.top(); top != ts[1] || bag.minRunReplicas() != 0 {
		t.Fatalf("top = task %d (min %d), want 1 (0)", top.ID, bag.minRunReplicas())
	}
	// Remove tasks; the heap shrinks and stays consistent.
	bag.unmarkRunning(ts[1])
	if top := bag.runHeap.top(); top != ts[2] {
		t.Fatalf("top = task %d after removal, want 2", top.ID)
	}
	if ts[1].runIdx != -1 {
		t.Fatal("removed task keeps a heap index")
	}
	bag.unmarkRunning(ts[2])
	bag.unmarkRunning(ts[3])
	bag.unmarkRunning(ts[0])
	if bag.runHeap.len() != 0 {
		t.Fatalf("heap not empty after removing all: %d", bag.runHeap.len())
	}
	if bag.replicable(100) != nil || bag.minRunReplicas() <= 0 {
		t.Fatal("empty heap should report no replicable task")
	}
}

func TestBagAccessors(t *testing.T) {
	bag := newBag(3, 42.5, 1000, []float64{100, 200, 300})
	if bag.ID != 3 || bag.Arrival != 42.5 {
		t.Fatal("bag identity wrong")
	}
	if bag.TotalWork() != 600 || bag.RemainingWork() != 600 {
		t.Fatalf("work accounting wrong: %v/%v", bag.TotalWork(), bag.RemainingWork())
	}
	if bag.Complete() || bag.DoneTasks() != 0 {
		t.Fatal("fresh bag should be incomplete")
	}
	if bag.PendingCount() != 3 || !bag.HasPending() {
		t.Fatal("fresh bag should have all tasks pending")
	}
	if bag.RunningReplicas() != 0 {
		t.Fatal("fresh bag should have no replicas")
	}
	// All tasks idle since arrival.
	for _, tk := range bag.Tasks {
		if tk.IdleTime(100) != 57.5 {
			t.Fatalf("IdleTime = %v, want 57.5", tk.IdleTime(100))
		}
		if tk.Checkpointed != 0 {
			t.Fatal("fresh task should have full work remaining")
		}
	}
}

func TestReplicableSelection(t *testing.T) {
	bag := newBag(0, 0, 1000, []float64{100, 200, 300})
	t0 := bag.popPending()
	bag.markRunning(t0)
	t0.Replicas = append(t0.Replicas, &Replica{Task: t0})
	bag.replicaCountChanged(t0)
	t1 := bag.popPending()
	bag.markRunning(t1)
	t1.Replicas = append(t1.Replicas, &Replica{Task: t1}, &Replica{Task: t1})
	bag.replicaCountChanged(t1)
	// Threshold 2: only t0 (1 replica) qualifies; t1 is full.
	if got := bag.replicable(2); got != t0 {
		t.Fatalf("replicable(2) = %v, want task 0", got)
	}
	// Threshold 1: nothing qualifies.
	if got := bag.replicable(1); got != nil {
		t.Fatalf("replicable(1) = %v, want nil", got)
	}
	// Unlimited: fewest replicas wins (t0).
	if got := bag.replicable(1 << 30); got != t0 {
		t.Fatalf("replicable(inf) = %v, want task 0", got)
	}
}
