// Package des provides a deterministic discrete-event simulation engine.
//
// The engine maintains a simulation clock and an event queue with a total
// order on (time, sequence number). Ties in time are broken by scheduling
// order, so a run is fully deterministic: the same sequence of Schedule and
// Cancel calls always yields the same execution order.
//
// The queue is a ladder queue (see ladder.go): a three-tier calendar
// structure — a sorted near-future "bottom" window, a spine of bucketed
// rungs that lazily re-bucket as the clock advances, and an unsorted
// far-future "top" overflow — giving amortized O(1) Schedule and Step where
// a binary heap pays O(log n) per operation. The package tests hold it to a
// plain (time, seq) binary heap as the reference order.
//
// Events are pooled: once an event fires or is cancelled its storage is
// recycled for the next Schedule, so the steady-state event loop allocates
// nothing. Callers therefore never hold *event pointers; Schedule returns a
// generation-stamped EventRef handle whose Cancel and Pending operations
// are safe (and no-ops) after the event has fired and its storage been
// reused. Cancel recycles the storage in O(1) and removes the queue entry
// eagerly when the event still sits where it was inserted; if the queue has
// since moved it, the leftover entry is discarded when it surfaces — its
// inline sequence number can never match a reused slot, since sequence
// numbers are unique for the life of the engine.
package des

import (
	"fmt"
	"math"
)

// Handler is the callback invoked when an event fires. It receives the
// engine so that it can schedule further events.
type Handler func(e *Engine)

// event is a pooled, scheduled occurrence inside the simulation. Callers
// interact with events only through EventRef handles.
type event struct {
	time float64
	seq  uint64
	gen  uint64 // bumped on recycle; stale EventRefs detect it
	fn   func(e *Engine, arg any)
	arg  any
	tier int32  // tier stamped at insert; tierNone when unqueued
	b    int32  // bucket stamped at insert (rung tiers)
	slot int32  // position stamped at insert
	id   uint32 // arena index of this event's storage, stamped once
}

// Arena geometry: events live in fixed-size slabs addressed by a uint32
// index (slab number in the high bits, offset in the low bits).
const (
	slabShift = 10
	slabSize  = 1 << slabShift
	slabMask  = slabSize - 1
)

// arena is the pooled event store. Slabs are pointers to fixed arrays, so
// event addresses never move once handed out — EventRef holds *event
// safely — while the ladder's tier entries can hold the bare uint32 index
// instead of a pointer. That keeps the tier arrays free of pointers
// entirely: the GC neither scans them nor interposes write barriers on the
// shift/sort/re-bucket traffic that dominates queue time.
type arena struct {
	slabs []*[slabSize]event
	free  []uint32 // recycled indices, LIFO
}

// at resolves an arena index to its event. The slabMask index into the
// fixed-size array needs no bounds check.
//
//botlint:hotpath
func (a *arena) at(idx uint32) *event {
	return &a.slabs[idx>>slabShift][idx&slabMask]
}

// alloc takes a recycled event or grows the arena by one slab.
//
//botlint:hotpath
func (a *arena) alloc() *event {
	if n := len(a.free); n > 0 {
		idx := a.free[n-1]
		a.free = a.free[:n-1]
		return a.at(idx)
	}
	return a.grow()
}

// grow adds one slab and hands out its first event. Kept out of alloc (and
// out of the inliner) so the slab allocation stays off alloc's steady-state
// escape profile: growth happens once per slabSize events.
//
//go:noinline
func (a *arena) grow() *event {
	base := uint32(len(a.slabs)) << slabShift
	slab := new([slabSize]event)
	for i := range slab {
		slab[i].id = base + uint32(i)
		slab[i].tier = tierNone
	}
	a.slabs = append(a.slabs, slab)
	// Hand out slot 0 and free-list the rest in descending order, so
	// subsequent allocs walk the slab front to back.
	for i := slabSize - 1; i >= 1; i-- {
		a.free = append(a.free, base+uint32(i))
	}
	return &slab[0]
}

// Queue tiers. An event's (tier, b, slot) records where it was inserted.
// The ladder never updates the stamp as the queue reshapes itself — tier
// moves are pure item-array traffic — so the stamp may go stale; Cancel
// validates it against the item's sequence number before removing eagerly,
// and falls back to lazy discard when the event has moved (see ladder.go).
const (
	tierNone   int32 = -1 // not queued (fired, cancelled or pooled)
	tierBottom int32 = 0  // the ladder's sorted near-future window
	tierTop    int32 = 1  // the ladder's unsorted far-future overflow
	tierRung0  int32 = 2  // ladder rung k is tier tierRung0+k
)

// EventRef is a handle to a scheduled event. The zero value is a valid
// "no event" reference: cancelling it is a no-op and it is never pending.
// A ref goes permanently stale once its event fires or is cancelled, even
// after the engine recycles the underlying storage for a new event.
type EventRef struct {
	ev  *event
	gen uint64
}

// Pending reports whether the referenced event is still queued (neither
// fired nor cancelled).
func (ref EventRef) Pending() bool {
	return ref.ev != nil && ref.ev.gen == ref.gen && ref.ev.tier != tierNone
}

// Time returns the simulation time at which the event will fire, or NaN
// when the event is no longer pending.
func (ref EventRef) Time() float64 {
	if !ref.Pending() {
		return math.NaN()
	}
	return ref.ev.time
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use; a simulation run is single-threaded by design and
// parallelism belongs at the level of independent runs.
type Engine struct {
	now     float64
	seq     uint64
	lq      ladder // the event queue
	mem     arena  // slab-pooled event storage
	fired   uint64
	stopped bool
}

// New returns an engine with the clock at zero and an empty ladder queue.
func New() *Engine {
	e := &Engine{}
	e.lq.init(&e.mem)
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far. Useful for
// instrumentation and benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// Len returns the number of events currently queued.
func (e *Engine) Len() int { return e.lq.count }

// runHandler adapts the closure-based Handler API to the pooled (fn, arg)
// representation. Handler values are pointer-shaped, so storing one in the
// arg interface does not allocate.
func runHandler(e *Engine, arg any) { arg.(Handler)(e) }

// Schedule enqueues handler to run after delay simulation seconds and
// returns a handle so that it can be cancelled. It panics if delay is
// negative or NaN: scheduling into the past is always a model bug.
func (e *Engine) Schedule(delay float64, handler Handler) EventRef {
	if handler == nil {
		panic("des: nil handler")
	}
	return e.ScheduleFunc(delay, runHandler, handler)
}

// ScheduleAt enqueues handler to run at absolute simulation time t. It
// panics if t precedes the current time.
func (e *Engine) ScheduleAt(t float64, handler Handler) EventRef {
	if handler == nil {
		panic("des: nil handler")
	}
	return e.ScheduleFuncAt(t, runHandler, handler)
}

// ScheduleFunc enqueues fn(engine, arg) to run after delay simulation
// seconds. It is the allocation-free fast path for hot loops: fn is
// typically a pre-bound method value and arg a pointer, so neither the
// event (pooled) nor the callback (no closure) costs a heap allocation.
func (e *Engine) ScheduleFunc(delay float64, fn func(*Engine, any), arg any) EventRef {
	if math.IsNaN(delay) || delay < 0 {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	return e.ScheduleFuncAt(e.now+delay, fn, arg)
}

// ScheduleFuncAt is ScheduleFunc with an absolute fire time.
//
//botlint:hotpath
func (e *Engine) ScheduleFuncAt(t float64, fn func(*Engine, any), arg any) EventRef {
	if math.IsNaN(t) || t < e.now {
		//botlint:ignore hotpath -- panic path: formatting cost is irrelevant once the model is already broken
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("des: nil handler")
	}
	e.seq++
	ev := e.mem.alloc()
	ev.time, ev.seq, ev.fn, ev.arg = t, e.seq, fn, arg
	e.lq.insert(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// recycle invalidates every outstanding EventRef to ev and returns its
// storage to the arena.
//
//botlint:hotpath
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.tier = tierNone
	ev.fn = nil
	ev.arg = nil
	e.mem.free = append(e.mem.free, ev.id)
}

// Cancel removes a pending event from the queue and recycles it.
// Cancelling a zero, fired, stale or already-cancelled ref is a no-op,
// which simplifies caller bookkeeping.
//
// The storage is recycled immediately either way; the queue entry is
// removed eagerly when the event still sits where it was inserted, and
// discarded lazily when it surfaces at the front otherwise.
func (e *Engine) Cancel(ref EventRef) {
	if !ref.Pending() {
		return
	}
	e.lq.cancel(ref.ev)
	e.recycle(ref.ev)
}

// Step executes the single earliest event. It returns false when the queue
// is empty or the engine was stopped.
//
//botlint:hotpath
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.lq.popMin()
	if ev == nil {
		return false
	}
	e.now = ev.time
	fn, arg := ev.fn, ev.arg
	e.recycle(ev) // before the callback, so it can reuse the slot
	e.fired++
	fn(e, arg)
	return true
}

// Run executes events until the queue drains or the engine is stopped.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t
// (if the clock has not already passed it). Events scheduled exactly at t
// are executed.
func (e *Engine) RunUntil(t float64) {
	for !e.stopped {
		// Peeking may refill the ladder's bottom tier, which mutates the
		// queue structure but never the fire order.
		next, ok := e.lq.peekTime()
		if !ok || next > t {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Reset returns the engine to its initial state — clock at zero, queue
// empty, not stopped — while keeping the allocator warm: the event arena,
// the bottom and top tier arrays, the ladder's retired rungs and its pool
// of bucket arrays persist, so a worker that executes many simulations
// back-to-back (a sweep worker, a replication benchmark) pays the growth
// cost once instead of every run. For a deep queue, what the ladder keeps
// follows its peak queued population, not every rung slot's largest
// bucket (see ladder.go).
// Pending events are discarded and every outstanding EventRef goes stale,
// exactly as if the events had been cancelled. Sequence numbers keep
// rising across Reset — uniqueness for the life of the engine is what
// keeps stale queue residue detectable — and fire order depends only on
// their relative order, so a reset engine replays a run bit-identically
// to a fresh one.
func (e *Engine) Reset() {
	// Queued events are exactly those not stamped tierNone: firing and
	// cancelling both recycle (and so un-stamp) immediately.
	for _, slab := range e.mem.slabs {
		for i := range slab {
			if slab[i].tier != tierNone {
				e.recycle(&slab[i])
			}
		}
	}
	e.lq.reset()
	e.now = 0
	e.fired = 0
	e.stopped = false
}

// Stop halts the run loop after the current event completes. Subsequent
// Step calls return false. The queue contents are preserved so callers can
// inspect residual events.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
