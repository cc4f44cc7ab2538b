// The ladder queue: a calendar-style multi-tier event queue with amortized
// O(1) insert and pop (Tang, Goh & Thng's ladder queue, adapted for pooled
// events and lazy cancellation).
//
// Three kinds of tier, nearest future first:
//
//   - bottom: a small slice sorted descending by (time, seq), so the next
//     event to fire is popped from the end in O(1). It covers the window
//     (-inf, botLimit); every queued event with time < botLimit is here.
//   - rungs: a stack of bucket arrays. Each rung partitions a time range
//     into equal-width buckets of unsorted events; rungs[len-1] (the
//     innermost, most recently spawned) covers the range right after the
//     bottom window, and rung ranges are contiguous outward. Buckets are
//     only sorted when they become the bottom window — events that are
//     cancelled first are never sorted at all, which is where the
//     "lazy re-bucket on advance" of the calendar family pays off.
//   - top: one unsorted slice for everything beyond the outermost rung.
//
// Tiers store items — the (time, seq) sort key inline next to the event's
// arena index — so the range scans, bucket maps and batch sorts that
// dominate queue time never dereference the pooled event structs, which
// sit in allocation order, not fire order, and would cost a cache miss
// each. Because an item carries no pointer, the tier arrays are also
// invisible to the garbage collector: shifting, sorting and re-bucketing
// them incurs no write barriers and the arrays are never scanned.
//
// Rung buckets share their item arrays through one ladder-wide pool kept
// by capacity class. A bucket array always has a power-of-two capacity,
// and a full bucket trades its array for one twice as large from the
// pool. When a bucket of a wide rung (more than narrowRung buckets, what
// a deep queue spawns) drains, an array above poolMin items goes back to
// the pool, so a deep queue's ladder retains a small multiple of its peak
// queued population instead of the sum of thousands of slot high-water
// marks. Small arrays, and every array of a narrow rung, stay in their
// slots: a shallow queue refills them in place, spawn after spawn.
//
// Cancellation is eager when cheap, lazy when not. An event's (tier, b,
// slot) is stamped once, at insert, while the struct is cache-hot; the
// consume/spawn cascades that move items between tiers never write it
// back. Cancel checks whether the stamped slot still holds the event's
// item (by sequence number — unique for the life of the engine, so a
// leftover item can never be mistaken for a slot's next tenant) and if so
// removes it on the spot; otherwise the item has moved, and it is left as
// residue that popMin/peekTime discard when it surfaces. Most events are
// cancelled before the queue reshapes around them, so residue is rare,
// while the bulk tier moves stay pure item-array traffic.
//
// Invariants, maintained by every operation:
//
//  1. bottom holds every queued event with time < botLimit (plus possibly
//     some cancelled residue), sorted descending by (time, seq). botLimit
//     advances as buckets are consumed; the one retraction is
//     spawnFromBottom, which empties the window into a fresh innermost rung
//     when sorted inserts overgrow it.
//  2. rung ranges are contiguous: the innermost rung's range starts at
//     botLimit, and each rung's range ends where the next one out begins.
//     Events whose computed bucket would precede a rung's first unconsumed
//     bucket are clamped into that bucket; the sort at consumption time
//     makes any in-window placement order-correct.
//  3. top events fire no earlier than every rung and bottom event with a
//     smaller sequence number: an event is appended to top only when its
//     time is ≥ every active tier's upper edge, and tiers drain fully
//     before top is re-bucketed, so equal-time events still fire in seq
//     (i.e. scheduling) order.
//
// Together these give the same total (time, seq) fire order as a binary
// heap — bit-identical simulation output — while the common operations
// touch O(1) events: insert appends to an unsorted bucket, pop takes the
// tail of bottom, and each event is sorted once, in a bucket-sized batch,
// when its bucket's turn comes.
package des

import (
	"math"
	"math/bits"
)

const (
	// spawnThresh is the bucket size above which consumption spawns a
	// finer rung instead of sorting the bucket into bottom; it bounds the
	// usual bottom window (and hence sorted-insert cost) to a batch that
	// sorts in-cache.
	spawnThresh = 32
	// maxRungs bounds the spine depth. Once reached, oversized buckets
	// are sorted wholesale — still correct, just a bigger batch.
	maxRungs = 8
	// maxSpawnBuckets caps a rung's bucket count, and so the size of the
	// slot table every rung carries. It is sized so that even a
	// many-thousand-event spawn (a wide grid's pending machine transitions,
	// say) lands near bucketDensity events per bucket and drains without
	// cascading into sub-rungs.
	maxSpawnBuckets = 1 << 13
	// bottomThresh is the bottom-window population above which an insert
	// re-buckets the window into a fresh innermost rung. Without it a wide
	// consumed bucket degenerates into insertion sort: every handler that
	// schedules into the still-open window pays an O(window) shift.
	bottomThresh = 64
	// bucketDensity is the events-per-bucket target when spawning a rung.
	// One event per bucket minimizes sorting but pays a full consume cycle
	// (refill walk, slice bookkeeping, botLimit update) per event; a small
	// batch sorts in-cache for the same cost, so fatter buckets win.
	bucketDensity = 8
	// poolMin is the bucket capacity above which a drained bucket of a
	// wide rung returns its array to the ladder's pool. Arrays this small
	// stay in their slot and are refilled in place without pool traffic
	// or re-growing.
	poolMin = 2 * bucketDensity
	// narrowRung is the bucket count up to which a rung's slots keep
	// their arrays whatever their size. A narrow rung serves a shallow
	// queue, or refines one oversized bucket, and its few slots refill
	// with similar sizes spawn after spawn: re-growing them from the pool
	// each time cost up to a third more per event, while all of them
	// together hold little. The slot tables of wide rungs are where
	// per-slot high-water marks add up.
	narrowRung = 256
)

// item is one tier entry: an event's arena index with its total-order key
// held inline, so ordering decisions read the tier's own (cache-dense,
// pointer-free) array and never touch the event. The seq doubles as the
// liveness check against the arena slot when the item is consumed.
type item struct {
	time float64
	seq  uint64
	idx  uint32
}

// after reports whether a fires strictly after b in the total (time, seq)
// order.
//
//botlint:hotpath
func (a item) after(b item) bool {
	if a.time != b.time {
		return a.time > b.time
	}
	return a.seq > b.seq
}

// bucketsFor picks a rung's bucket count for n events: n/bucketDensity,
// clamped to [1, maxSpawnBuckets].
//
//botlint:hotpath
func bucketsFor(n int) int {
	nb := n / bucketDensity
	if nb < 1 {
		nb = 1
	}
	if nb > maxSpawnBuckets {
		nb = maxSpawnBuckets
	}
	return nb
}

// rung is one bucketed tier: nb equal-width buckets starting at start,
// covering [start, limit). cur is the first unconsumed bucket; buckets
// before it are empty.
type rung struct {
	start  float64
	width  float64
	invw   float64 // 1/width; bucketFor multiplies instead of dividing
	limit  float64
	cur    int
	nb     int
	bucket [][]item
}

// ladder is the queue itself. init wires the event arena and sets the
// bottom window edge to -inf.
type ladder struct {
	mem      *arena  // the engine's event store, for liveness checks
	bottom   []item  // sorted descending by (time, seq); pop from the end
	botLimit float64 // exclusive upper edge of the bottom window
	rungs    []*rung // stack; rungs[len-1] is the innermost
	top      []item  // unsorted far-future overflow
	count    int     // queued events across all tiers
	free     []*rung // recycled rungs; their buckets are empty
	pref     uint64  // sink for popMin's next-event prefetch load
	// pool holds the empty bucket arrays no slot is using, by capacity
	// class: pool[k] holds arrays of capacity 1<<k.
	pool [bits.UintSize][][]item
}

func (l *ladder) init(mem *arena) {
	l.mem = mem
	l.botLimit = math.Inf(-1)
}

// reset empties every tier: bottom and top truncate in place, and live
// rungs release their buckets to the pool and retire to the free-list, so
// the next run's spawn cycles reuse the rungs and arrays this one grew.
func (l *ladder) reset() {
	l.bottom = l.bottom[:0]
	l.top = l.top[:0]
	for i, r := range l.rungs {
		for b := r.cur; b < r.nb; b++ {
			l.release(r, b)
		}
		l.free = append(l.free, r)
		l.rungs[i] = nil
	}
	l.rungs = l.rungs[:0]
	l.count = 0
	l.botLimit = math.Inf(-1)
}

// insert routes an event to the innermost tier whose range contains its
// fire time: the sorted bottom window, a rung bucket, or the top overflow.
//
//botlint:hotpath
func (l *ladder) insert(ev *event) {
	l.count++
	it := item{time: ev.time, seq: ev.seq, idx: ev.id}
	if it.time < l.botLimit {
		l.insertBottom(it, ev)
		return
	}
	for i := len(l.rungs) - 1; i >= 0; i-- {
		if r := l.rungs[i]; it.time < r.limit {
			b := r.bucketFor(it.time)
			ev.tier, ev.b, ev.slot = tierRung0+int32(i), int32(b), int32(len(r.bucket[b]))
			l.push(&r.bucket[b], it)
			return
		}
	}
	ev.tier, ev.b, ev.slot = tierTop, 0, int32(len(l.top))
	l.top = append(l.top, it)
}

// insertBottom places an event inside the sorted bottom window. The shift
// is bounded by the window population (one consumed bucket), and for the
// common immediate-event case — time equal to the current clock — only the
// existing same-time ties move.
//
//botlint:hotpath
func (l *ladder) insertBottom(it item, ev *event) {
	// Binary search in the descending slice for the first element that
	// fires before it; it goes right before that element.
	lo, hi := 0, len(l.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if it.after(l.bottom[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	l.bottom = append(l.bottom, item{})
	copy(l.bottom[lo+1:], l.bottom[lo:])
	l.bottom[lo] = it
	ev.tier, ev.b, ev.slot = tierBottom, 0, int32(lo)
	if len(l.bottom) > bottomThresh {
		l.spawnFromBottom()
	}
}

// spawnFromBottom re-buckets an overgrown bottom window into a fresh
// innermost rung covering [earliest bottom time, botLimit) and retracts
// botLimit to the rung's start — the one place the window edge moves
// backward. Inserts inside the old window then append to a bucket in O(1)
// instead of shifting the sorted slice, and the events are re-sorted
// bucket by bucket as the window re-advances. Declines (leaving bottom
// sorted) when the window cannot be subdivided: same-instant ties, an
// infinite window edge, exhausted float precision or a full rung spine.
//
//botlint:hotpath
func (l *ladder) spawnFromBottom() {
	if len(l.rungs) >= maxRungs {
		return
	}
	evs := l.bottom
	lo, hi := evs[len(evs)-1].time, evs[0].time // sorted descending
	if hi <= lo || math.IsInf(l.botLimit, 1) {
		return
	}
	nb := bucketsFor(len(evs))
	// Bucket width follows the event spread, not the (possibly much
	// wider) window: the tail bucket absorbs the sparse [hi, botLimit)
	// range and spawnSub refines it later if it ever fills up.
	width := (hi - lo) / float64(nb)
	if width <= 0 || lo+width <= lo {
		return
	}
	r := l.getRung(nb)
	r.start, r.width, r.invw, r.limit = lo, width, 1/width, l.botLimit
	l.rungs = append(l.rungs, r)
	for _, it := range evs {
		l.push(&r.bucket[r.bucketFor(it.time)], it)
	}
	l.bottom = evs[:0]
	l.botLimit = lo
}

// push appends an item to a rung bucket. The re-bucketing cascades call
// it as a pure item operation: the event structs are never touched and
// insert-time stamps go stale, degrading a later Cancel of a moved event
// from eager removal to lazy discard.
//
//botlint:hotpath
func (l *ladder) push(bk *[]item, it item) {
	if len(*bk) == cap(*bk) {
		l.grow(bk)
	}
	*bk = append(*bk, it)
}

// grow moves a full bucket into an array of twice its capacity (one for
// an empty slot), taken from the pool when one is free, and pools the
// outgrown array. Kept out of the inliner so push, which inlines into
// every insert and spawn loop, stays a compare and an append.
//
//go:noinline
func (l *ladder) grow(bk *[]item) {
	old := *bk
	k := bits.Len(uint(cap(old)))
	var s []item
	if n := len(l.pool[k]); n > 0 {
		s, l.pool[k] = l.pool[k][n-1], l.pool[k][:n-1]
	} else {
		s = make([]item, 0, 1<<k)
	}
	*bk = append(s, old...)
	if cap(old) > 0 {
		l.put(old)
	}
}

// put adds an array, emptied, to the pool's class for its capacity.
//
//botlint:hotpath
func (l *ladder) put(s []item) {
	k := bits.TrailingZeros(uint(cap(s)))
	l.pool[k] = append(l.pool[k], s[:0])
}

// release empties bucket k of r, a bucket that has drained. In a rung
// wider than narrowRung an array above poolMin goes back to the pool and
// the slot starts over from nothing; otherwise the array stays in the
// slot, truncated.
//
//botlint:hotpath
func (l *ladder) release(r *rung, k int) {
	if s := r.bucket[k]; cap(s) > poolMin && r.nb > narrowRung {
		l.put(s)
		r.bucket[k] = nil
		return
	}
	r.bucket[k] = r.bucket[k][:0]
}

// bucketFor maps a fire time to a bucket index. Times below the first
// unconsumed bucket (possible after clamped re-spawns) go into that
// bucket — the consumption-time sort makes that order-correct. The nudge
// loops repair float rounding so that, within [cur, nb), an event never
// lands in a bucket whose range excludes it.
//
//botlint:hotpath
func (r *rung) bucketFor(t float64) int {
	if r.nb == 1 || r.width <= 0 || t < r.start {
		return r.cur
	}
	idx := int((t - r.start) * r.invw)
	if idx >= r.nb {
		idx = r.nb - 1
	}
	if idx <= r.cur {
		return r.cur
	}
	for idx > r.cur && t < r.start+float64(idx)*r.width {
		idx--
	}
	for idx+1 < r.nb && t >= r.start+float64(idx+1)*r.width {
		idx++
	}
	return idx
}

// end returns the exclusive upper edge of bucket k, which is the next
// bucket's start except for the last bucket, whose edge is the rung limit.
func (r *rung) end(k int) float64 {
	if k+1 >= r.nb {
		return r.limit
	}
	return r.start + float64(k+1)*r.width
}

// popMin removes and returns the earliest event, or nil when empty. Items
// whose event was cancelled are discarded here: a live item's sequence
// number matches its arena slot's current occupant, a dead one's cannot
// (sequence numbers are never reused, and a recycled-but-unreused slot
// keeps the old sequence but is stamped tierNone).
//
//botlint:hotpath
func (l *ladder) popMin() *event {
	for {
		if len(l.bottom) == 0 && !l.refill() {
			return nil
		}
		n := len(l.bottom) - 1
		it := l.bottom[n]
		l.bottom = l.bottom[:n]
		ev := l.mem.at(it.idx)
		if ev.seq != it.seq || ev.tier == tierNone {
			continue // cancelled: drop the leftover item
		}
		ev.tier = tierNone
		l.count--
		// Touch the next event to fire (bottom is sorted, so it is
		// already known): pooled events sit in allocation order, not
		// fire order, and this load starts the next pop's cache miss
		// early enough for the current event's handler to hide it.
		if n := len(l.bottom); n > 0 {
			l.pref = l.mem.at(l.bottom[n-1].idx).gen
		}
		return ev
	}
}

// peekTime reports the earliest queued fire time without consuming it,
// discarding any cancelled residue it finds at the front.
func (l *ladder) peekTime() (float64, bool) {
	for {
		if len(l.bottom) == 0 && !l.refill() {
			return 0, false
		}
		n := len(l.bottom) - 1
		it := l.bottom[n]
		ev := l.mem.at(it.idx)
		if ev.seq == it.seq && ev.tier != tierNone {
			return it.time, true
		}
		l.bottom = l.bottom[:n]
	}
}

// refill advances the ladder until bottom is non-empty: it walks the
// innermost rung past empty buckets, pops exhausted rungs, re-buckets
// oversized buckets into finer rungs, sorts the next bucket into bottom,
// and re-buckets top into a fresh rung spine once everything else drains.
// Returns false when the whole queue is empty.
//
//botlint:hotpath
func (l *ladder) refill() bool {
	for len(l.bottom) == 0 {
		nr := len(l.rungs)
		if nr == 0 {
			if len(l.top) == 0 {
				return false
			}
			l.spawnFromTop()
			continue
		}
		r := l.rungs[nr-1]
		// The walk over empty buckets stays read-only unless one holds
		// a pooled-size array (its items were all cancelled).
		for r.cur < r.nb && len(r.bucket[r.cur]) == 0 {
			if cap(r.bucket[r.cur]) > poolMin {
				l.release(r, r.cur)
			}
			r.cur++
		}
		if r.cur >= r.nb {
			l.popRung()
			continue
		}
		if len(r.bucket[r.cur]) > spawnThresh && nr < maxRungs && l.spawnSub(r) {
			continue
		}
		l.consume(r)
	}
	return true
}

// consume sorts the innermost rung's current bucket into bottom and
// advances the bottom window to the bucket's upper edge.
//
//botlint:hotpath
func (l *ladder) consume(r *rung) {
	k := r.cur
	evs := r.bucket[k]
	b := l.bottom[:0]
	b = append(b, evs...)
	sortItemsDesc(b)
	l.bottom = b
	l.release(r, k)
	r.cur = k + 1
	l.botLimit = r.end(k)
}

// spawnSub re-buckets an oversized front bucket into a finer rung pushed
// onto the spine. It declines (returning false) when the bucket is all
// same-time ties or bucket-width precision is exhausted; the caller then
// sorts the bucket wholesale.
//
//botlint:hotpath
func (l *ladder) spawnSub(parent *rung) bool {
	k := parent.cur
	evs := parent.bucket[k]
	lo, hi := evs[0].time, evs[0].time
	for _, it := range evs[1:] {
		if it.time < lo {
			lo = it.time
		}
		if it.time > hi {
			hi = it.time
		}
	}
	if hi == lo {
		return false
	}
	end := parent.end(k)
	nb := bucketsFor(len(evs))
	width := (end - lo) / float64(nb)
	if width <= 0 || lo+width <= lo || math.IsInf(width, 1) {
		// An infinite parent edge (events at +Inf) admits no finite
		// bucket width; int(NaN) from bucketFor's width scaling would be
		// implementation-defined, so sort the bucket wholesale instead.
		return false
	}
	r := l.getRung(nb)
	r.start, r.width, r.invw, r.limit = lo, width, 1/width, end
	l.rungs = append(l.rungs, r)
	for _, it := range evs {
		l.push(&r.bucket[r.bucketFor(it.time)], it)
	}
	l.release(parent, k)
	parent.cur = k + 1
	return true
}

// spawnFromTop re-buckets the near part of the far-future overflow into
// rung 0 once bottom and every rung have drained. The rung window covers
// the dense bulk of the distribution — twice the mean offset from the
// earliest event — rather than the full [min, max] span, so a single far
// outlier (a simulation-horizon timer, say) cannot stretch the rung until
// every near event piles into one bucket and pays a re-bucketing cascade.
// Events at or beyond the window stay in top, which preserves invariant 3:
// everything left behind fires no earlier than the new rung's upper edge.
//
//botlint:hotpath
func (l *ladder) spawnFromTop() {
	evs := l.top
	lo, hi := evs[0].time, evs[0].time
	sum := 0.0
	for _, it := range evs {
		if it.time < lo {
			lo = it.time
		}
		if it.time > hi {
			hi = it.time
		}
		sum += it.time
	}
	limit := hi
	if w := 2 * (sum/float64(len(evs)) - lo); w > 0 && lo+w < hi && !math.IsInf(w, 1) {
		limit = lo + w
	}
	nb := bucketsFor(len(evs))
	var width float64
	if limit > lo {
		width = (limit - lo) / float64(nb)
	}
	if width <= 0 || lo+width <= lo || math.IsInf(width, 1) {
		// One instant, below float resolution, or an infinite span
		// (events at +Inf): a single degenerate bucket; bucketFor sends
		// everything to it without ever scaling by the width.
		nb, width = 1, 0
		limit = hi
	}
	r := l.getRung(nb)
	r.start, r.width, r.limit = lo, width, limit
	r.invw = 0
	if width > 0 {
		r.invw = 1 / width
	}
	l.rungs = append(l.rungs, r)
	if limit >= hi {
		for _, it := range evs {
			l.push(&r.bucket[r.bucketFor(it.time)], it)
		}
		l.top = evs[:0]
		return
	}
	// Split: the dense head moves into the rung, the far tail stays in
	// top (compacted in place). The compaction re-stamps each survivor's
	// slot — guarded by seq, since a residue item's storage may already
	// belong to a different live event — so that cancels of long-lived
	// far-future events stay eager across re-bucketing cycles.
	n := 0
	for _, it := range evs {
		if it.time < limit {
			l.push(&r.bucket[r.bucketFor(it.time)], it)
		} else {
			if ev := l.mem.at(it.idx); ev.seq == it.seq {
				ev.slot = int32(n)
			}
			evs[n] = it
			n++
		}
	}
	l.top = evs[:n]
}

// popRung retires an exhausted innermost rung and advances the bottom
// window to its upper edge (every remaining event lies at or beyond it).
//
//botlint:hotpath
func (l *ladder) popRung() {
	n := len(l.rungs) - 1
	r := l.rungs[n]
	l.rungs[n] = nil
	l.rungs = l.rungs[:n]
	if r.limit > l.botLimit {
		l.botLimit = r.limit
	}
	l.free = append(l.free, r)
}

// getRung takes a rung from the free-list or makes one. Every rung carries
// a full maxSpawnBuckets-slot bucket table, so a recycled rung serves any
// nb without reshaping, and its slots draw larger arrays from the pool as
// buckets fill — the spawn/drain cycle then allocates nothing even when
// small and large rungs alternate. Retired rungs always hold empty
// buckets (consume, the spawns and refill's skip release every bucket
// they pass), so no reset loop is needed here.
//
//botlint:hotpath
func (l *ladder) getRung(nb int) *rung {
	var r *rung
	if n := len(l.free); n > 0 {
		r = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		r = newRung()
	}
	r.cur, r.nb = 0, nb
	return r
}

// newRung allocates a fresh rung with its full bucket array. Kept out of
// the inliner so the allocation is attributed here — once per steady-state
// rung population — instead of smearing a heap escape across getRung and
// every spawn site it inlines into.
//
//go:noinline
func newRung() *rung {
	return &rung{bucket: make([][]item, maxSpawnBuckets)}
}

// cancel unqueues a pending event. If the insert-time stamp still points
// at the event's item, the item is removed eagerly; if the queue has moved
// the item since (consume, a spawn cascade, a swap-remove below), the
// event is only uncounted and its item left behind for popMin to discard
// by sequence mismatch. Either way the caller recycles the storage.
//
//botlint:hotpath
func (l *ladder) cancel(ev *event) {
	l.count--
	i := int(ev.slot)
	switch {
	case ev.tier == tierBottom:
		if i < len(l.bottom) && l.bottom[i].seq == ev.seq {
			copy(l.bottom[i:], l.bottom[i+1:])
			l.bottom = l.bottom[:len(l.bottom)-1]
		}
	case ev.tier == tierTop:
		if i < len(l.top) && l.top[i].seq == ev.seq {
			n := len(l.top) - 1
			l.top[i] = l.top[n]
			l.top = l.top[:n]
		}
	default:
		k := int(ev.tier - tierRung0)
		if k >= len(l.rungs) {
			return
		}
		r := l.rungs[k]
		if int(ev.b) >= r.nb {
			return
		}
		bk := r.bucket[ev.b]
		if i < len(bk) && bk[i].seq == ev.seq {
			n := len(bk) - 1
			bk[i] = bk[n]
			r.bucket[ev.b] = bk[:n]
		}
	}
}

// sortItemsDesc sorts a bucket descending by (time, seq) — latest first,
// so the earliest event sits at the end for O(1) popping. Hand-rolled
// (median-of-three quicksort over an insertion-sorted base) because
// sort.Slice would box the slice and allocate its less closure on the
// consume hot path. Keys are unique, so any correct comparison sort yields
// the same, deterministic permutation.
//
//botlint:hotpath
func sortItemsDesc(s []item) {
	for len(s) > 16 {
		mid, last := len(s)/2, len(s)-1
		if s[mid].after(s[0]) {
			s[0], s[mid] = s[mid], s[0]
		}
		if s[last].after(s[0]) {
			s[0], s[last] = s[last], s[0]
		}
		if s[last].after(s[mid]) {
			s[mid], s[last] = s[last], s[mid]
		}
		piv := s[mid]
		i, j := 0, last
		for i <= j {
			for s[i].after(piv) {
				i++
			}
			for piv.after(s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Recurse into the smaller partition, iterate on the larger, so
		// stack depth stays O(log n).
		if j < len(s)-i {
			sortItemsDesc(s[:j+1])
			s = s[i:]
		} else {
			sortItemsDesc(s[i:])
			s = s[:j+1]
		}
	}
	for i := 1; i < len(s); i++ {
		it := s[i]
		j := i - 1
		for j >= 0 && it.after(s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = it
	}
}
