package core

// This file implements the schedulability index: the per-policy data
// structures that make bag selection O(1)/O(log n) instead of a linear scan
// over bags (and, before the running-task heap, over tasks).
//
// The design is lazy invalidation with version stamps. Every Bag carries a
// stamp that the scheduler bumps whenever any input of a selection decision
// changes (pending count, replica counts, running total, remaining work, or
// removal). Policies push immutable heap entries tagged with the stamp at
// push time; an entry is valid iff its stamp still equals the bag's. Because
// the scheduler publishes after *every* mutation and a policy pushes at most
// one entry per heap per stamp, a matching stamp proves both that the entry's
// key is current and that its membership condition still holds.
//
// Selection peeks: stale entries are popped until a valid one surfaces, and
// the valid top is left in place (the subsequent dispatch mutates the bag,
// bumping its stamp, which re-publishes a fresh entry). Stale entries that
// never reach the top are reclaimed by periodic compaction, which bounds a
// heap's size to O(live entries + pushes since the last compaction).
//
// Membership sets are defined against the two thresholds the dispatch loop
// presents to a policy — 1 (dynamic replication) and the configured base
// threshold: "has a pending task" covers threshold 1, and "min
// running-replica count below base" covers the rest. An indexed policy's
// SelectBag answers for those two thresholds and for the scheduler it is
// attached to, nothing else; the package tests hold every answer to the
// linear scan of the rule it implements.

// indexedPolicy is implemented by policies that maintain incremental
// selection state. The scheduler attaches the policy at construction and
// publishes every bag mutation through bagChanged / taskQueued; bag removal
// is published by bumping the stamp alone, so indexes never observe a
// removed bag.
type indexedPolicy interface {
	Policy
	// attach binds the policy to its scheduler and rebuilds all index
	// state from the scheduler's current bags. A Policy instance serves
	// at most one Scheduler.
	attach(s *Scheduler)
	// bagChanged publishes that b's schedulability inputs changed; it is
	// called after b.stamp was bumped and must (re-)insert b into every
	// index whose membership condition b currently satisfies.
	bagChanged(b *Bag)
	// taskQueued publishes that t entered its bag's pending queue (after
	// the enqueue froze t's idle key and bumped its pending epoch).
	taskQueued(t *Task)
}

// lazyItem is what a lazyHeap entry points at: valid reports whether the
// entry is still current. Only peek and compact ask; sifts compare the
// inline keys alone.
type lazyItem interface{ valid() bool }

// bagRef refers to a bag as of one stamp; it goes stale at the bag's next
// mutation (or removal, or reuse of its storage).
type bagRef struct {
	stamp uint64 // b.stamp at push time
	b     *Bag
}

func (r bagRef) valid() bool { return r.stamp == r.b.stamp }

// taskRef refers to a task for one pending stretch; it goes stale when
// the task starts, or re-enqueues and so bumps its epoch.
type taskRef struct {
	epoch uint32 // t.pendingEpoch at push time
	t     *Task
}

func (r taskRef) valid() bool {
	return r.t.State == TaskPending && r.t.pendingEpoch == r.epoch
}

// lazyEntry is one heap entry: the (key, tie) pair it is ordered by, held
// inline so sift comparisons never touch the item, and the item itself.
type lazyEntry[E lazyItem] struct {
	key  float64 // primary key (min-order)
	tie  uint64  // secondary key (min-order)
	item E
}

// lazyHeap is a min-heap of entries ordered by (key, tie) with lazy
// deletion: stale entries are dropped when they surface at the top or at
// the next compaction. The zero value is ready to use.
type lazyHeap[E lazyItem] struct {
	es       []lazyEntry[E]
	lastLive int // live-entry count at the last compaction
}

func (h *lazyHeap[E]) less(i, j int) bool {
	a, b := &h.es[i], &h.es[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.tie < b.tie
}

// push inserts item under (key, tie). It compacts first when stale entries
// dominate the storage.
func (h *lazyHeap[E]) push(key float64, tie uint64, item E) {
	if len(h.es) > 64 && len(h.es) > 2*h.lastLive {
		h.compact()
	}
	h.es = append(h.es, lazyEntry[E]{key: key, tie: tie, item: item})
	h.up(len(h.es) - 1)
}

// peek returns the minimum valid entry without removing it, popping stale
// entries encountered on the way; ok is false when the heap drains, and
// the entry is then the zero value.
func (h *lazyHeap[E]) peek() (lazyEntry[E], bool) {
	for len(h.es) > 0 {
		if e := h.es[0]; e.item.valid() {
			return e, true
		}
		h.popTop()
	}
	return lazyEntry[E]{}, false
}

func (h *lazyHeap[E]) popTop() {
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es[n] = lazyEntry[E]{}
	h.es = h.es[:n]
	h.down(0)
}

// reset drops all entries (used when a policy re-attaches).
func (h *lazyHeap[E]) reset() {
	h.es = h.es[:0]
	h.lastLive = 0
}

// compact removes every stale entry and re-heapifies in place.
func (h *lazyHeap[E]) compact() {
	w := 0
	for _, e := range h.es {
		if e.item.valid() {
			h.es[w] = e
			w++
		}
	}
	clear(h.es[w:])
	h.es = h.es[:w]
	for i := w/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	h.lastLive = w
}

func (h *lazyHeap[E]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.es[i], h.es[parent] = h.es[parent], h.es[i]
		i = parent
	}
}

func (h *lazyHeap[E]) down(i int) {
	n := len(h.es)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.less(right, left) {
			best = right
		}
		if !h.less(best, i) {
			break
		}
		h.es[i], h.es[best] = h.es[best], h.es[i]
		i = best
	}
}

// pushIdle indexes pending task t in LongIdle's order: frozen idle key
// descending, then bag ID, then task ID, both ascending. The key is
// negated into min-order and the IDs packed into the tie; bag and task IDs
// are non-negative and below 2^32, so the packed order equals the
// lexicographic (bag ID, task ID) order.
func pushIdle(h *lazyHeap[taskRef], t *Task) {
	tie := uint64(t.Bag.ID)<<32 | uint64(uint32(t.ID))
	h.push(-t.idleKey(), tie, taskRef{epoch: t.pendingEpoch, t: t})
}
