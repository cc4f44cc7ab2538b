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

// bagEntry is one lazily-invalidated index entry for a bag.
type bagEntry struct {
	key   float64 // policy-specific primary key (min-order)
	tie   int     // secondary key (min-order); bag ID for determinism
	stamp uint64  // b.stamp at push time; stale when it no longer matches
	b     *Bag
}

func (e bagEntry) valid() bool { return e.stamp == e.b.stamp }

// bagHeap is a min-heap of bagEntry with lazy deletion. The zero value is
// ready to use.
type bagHeap struct {
	es       []bagEntry
	lastLive int // live-entry count at the last compaction
}

func (h *bagHeap) less(i, j int) bool {
	a, b := h.es[i], h.es[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.tie < b.tie
}

func (h *bagHeap) swap(i, j int) { h.es[i], h.es[j] = h.es[j], h.es[i] }

// push inserts an entry for b with the given keys, stamped with b's current
// stamp. It compacts first when stale entries dominate the storage.
func (h *bagHeap) push(b *Bag, key float64, tie int) {
	if len(h.es) > 64 && len(h.es) > 2*h.lastLive {
		h.compact()
	}
	h.es = append(h.es, bagEntry{key: key, tie: tie, stamp: b.stamp, b: b})
	h.up(len(h.es) - 1)
}

// peek returns the minimum valid entry without removing it, popping stale
// entries encountered on the way; ok is false when the heap drains.
func (h *bagHeap) peek() (bagEntry, bool) {
	for len(h.es) > 0 {
		if e := h.es[0]; e.valid() {
			return e, true
		}
		h.popTop()
	}
	return bagEntry{}, false
}

func (h *bagHeap) popTop() {
	n := len(h.es) - 1
	if n > 0 {
		h.swap(0, n)
	}
	h.es[n] = bagEntry{}
	h.es = h.es[:n]
	if n > 0 {
		h.down(0)
	}
}

// reset drops all entries (used when a policy re-attaches).
func (h *bagHeap) reset() {
	h.es = h.es[:0]
	h.lastLive = 0
}

// compact removes every stale entry and re-heapifies in place.
func (h *bagHeap) compact() {
	w := 0
	for _, e := range h.es {
		if e.valid() {
			h.es[w] = e
			w++
		}
	}
	for i := w; i < len(h.es); i++ {
		h.es[i] = bagEntry{}
	}
	h.es = h.es[:w]
	for i := w/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	h.lastLive = w
}

func (h *bagHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *bagHeap) down(i int) {
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
		h.swap(i, best)
		i = best
	}
}

// idleEntry is one lazily-invalidated entry of the LongIdle task index.
type idleEntry struct {
	key    float64 // frozen idle key (max-order)
	bagID  int
	taskID int
	epoch  uint32 // t.pendingEpoch at push time
	t      *Task
}

func (e idleEntry) valid() bool {
	return e.t.State == TaskPending && e.t.pendingEpoch == e.epoch
}

// idleIdx is a global max-heap over pending tasks ordered by (idle key
// descending, bag ID ascending, task ID ascending) — exactly the order the
// LongIdle policy's nested scans used to realize. Entries go stale when the
// task starts (or re-enqueues, bumping its epoch) and are dropped lazily.
type idleIdx struct {
	es       []idleEntry
	lastLive int
}

func (h *idleIdx) less(i, j int) bool {
	a, b := h.es[i], h.es[j]
	if a.key != b.key {
		return a.key > b.key
	}
	if a.bagID != b.bagID {
		return a.bagID < b.bagID
	}
	return a.taskID < b.taskID
}

func (h *idleIdx) swap(i, j int) { h.es[i], h.es[j] = h.es[j], h.es[i] }

// push indexes t under its frozen heapKey and current pending epoch.
func (h *idleIdx) push(t *Task) {
	if len(h.es) > 64 && len(h.es) > 2*h.lastLive {
		h.compact()
	}
	h.es = append(h.es, idleEntry{key: t.heapKey, bagID: t.Bag.ID, taskID: t.ID, epoch: t.pendingEpoch, t: t})
	h.up(len(h.es) - 1)
}

// peek returns the longest-idle pending task, or nil when none exists.
func (h *idleIdx) peek() *Task {
	for len(h.es) > 0 {
		if e := h.es[0]; e.valid() {
			return e.t
		}
		h.popTop()
	}
	return nil
}

func (h *idleIdx) popTop() {
	n := len(h.es) - 1
	if n > 0 {
		h.swap(0, n)
	}
	h.es[n] = idleEntry{}
	h.es = h.es[:n]
	if n > 0 {
		h.down(0)
	}
}

func (h *idleIdx) reset() {
	h.es = h.es[:0]
	h.lastLive = 0
}

func (h *idleIdx) compact() {
	w := 0
	for _, e := range h.es {
		if e.valid() {
			h.es[w] = e
			w++
		}
	}
	for i := w; i < len(h.es); i++ {
		h.es[i] = idleEntry{}
	}
	h.es = h.es[:w]
	for i := w/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	h.lastLive = w
}

func (h *idleIdx) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *idleIdx) down(i int) {
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
		h.swap(i, best)
		i = best
	}
}
