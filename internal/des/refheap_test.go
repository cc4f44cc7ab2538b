package des

// refHeap is the reference event queue the ladder engine is held to: a
// plain binary heap ordered by (time, seq), with Engine's scheduling calls
// and none of its tiers. FuzzLadderVsHeap and TestLadderMatchesHeapRandom
// require the two to fire identical traces, and BenchmarkQueueChurn times
// them side by side. Fired and cancelled events go back to a free list, as
// in Engine, so the benchmark compares queues rather than allocators.
type refHeap struct {
	now  float64
	seq  uint64
	heap []*refEvent
	free []*refEvent
}

// refHandler is refHeap's Handler.
type refHandler func(*refHeap)

type refEvent struct {
	time float64
	seq  uint64
	gen  uint64 // bumped on recycle; stale refRefs detect it
	slot int    // index in heap; -1 when not queued
	fn   refHandler
}

// refRef is refHeap's EventRef.
type refRef struct {
	ev  *refEvent
	gen uint64
}

func (h *refHeap) Now() float64 { return h.now }

func (h *refHeap) Schedule(delay float64, fn refHandler) refRef {
	return h.ScheduleAt(h.now+delay, fn)
}

func (h *refHeap) ScheduleAt(t float64, fn refHandler) refRef {
	var ev *refEvent
	if n := len(h.free); n > 0 {
		ev, h.free = h.free[n-1], h.free[:n-1]
	} else {
		ev = new(refEvent)
	}
	h.seq++
	ev.time, ev.seq, ev.fn, ev.slot = t, h.seq, fn, len(h.heap)
	h.heap = append(h.heap, ev)
	h.up(ev.slot)
	return refRef{ev: ev, gen: ev.gen}
}

// Cancel is a no-op for a zero, fired, cancelled or recycled ref.
func (h *refHeap) Cancel(ref refRef) {
	if ref.ev != nil && ref.ev.gen == ref.gen && ref.ev.slot >= 0 {
		h.remove(ref.ev.slot)
	}
}

func (h *refHeap) Step() bool {
	if len(h.heap) == 0 {
		return false
	}
	t, fn := h.heap[0].time, h.heap[0].fn
	h.remove(0)
	h.now = t
	fn(h)
	return true
}

func (h *refHeap) Run() {
	for h.Step() {
	}
}

func (h *refHeap) RunUntil(t float64) {
	for len(h.heap) > 0 && h.heap[0].time <= t {
		h.Step()
	}
	if h.now < t {
		h.now = t
	}
}

// remove takes the event at heap index i out of the queue and recycles it.
func (h *refHeap) remove(i int) {
	ev := h.heap[i]
	n := len(h.heap) - 1
	h.swap(i, n)
	h.heap[n] = nil
	h.heap = h.heap[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
	ev.gen++
	ev.slot = -1
	ev.fn = nil
	h.free = append(h.free, ev)
}

func (h *refHeap) less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (h *refHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.heap[i].slot = i
	h.heap[j].slot = j
}

func (h *refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts element i toward the leaves and reports whether it moved.
func (h *refHeap) down(i int) bool {
	start := i
	n := len(h.heap)
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
	return i > start
}
