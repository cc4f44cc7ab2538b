package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// firing is one observed event execution: which scheduled event ran, and
// when.
type firing struct {
	id int
	at float64
}

// queue is the scheduling surface runScript and benchChurn drive: *Engine
// (with Handler and EventRef) and refHeap, the reference queue (with
// refHandler and refRef), both implement it.
type queue[Q any, H ~func(Q), R any] interface {
	Now() float64
	Schedule(delay float64, h H) R
	ScheduleAt(t float64, h H) R
	Cancel(ref R)
	Step() bool
	RunUntil(t float64)
	Run()
}

// runScript interprets a byte stream as a Schedule / ScheduleAt / Cancel /
// Step / RunUntil script against e and returns the resulting firing trace.
// The same stream applied to two queues issues the identical call
// sequence (refs are matched by schedule order), so traces are directly
// comparable. Delays are coarsely quantized to make same-time ties common,
// and cancel targets are drawn from every ref ever returned, so cancels of
// pending, fired and stale refs are all exercised.
func runScript[Q queue[Q, H, R], H ~func(Q), R any](e Q, data []byte) []firing {
	var fired []firing
	var refs []R
	nextID := 0
	schedule := func(at float64, abs bool) {
		id := nextID
		nextID++
		h := H(func(Q) { fired = append(fired, firing{id, e.Now()}) })
		if abs {
			refs = append(refs, e.ScheduleAt(at, h))
		} else {
			refs = append(refs, e.Schedule(at, h))
		}
	}
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		switch op % 8 {
		case 0, 1:
			// Spread-out relative delay, quarter-step quantized.
			schedule(float64(uint16(a)<<8|uint16(b))/4, false)
		case 2:
			// Near-future delay from a tiny set: heavy tie pressure.
			schedule(float64(a%8), false)
		case 3:
			// Absolute time at or shortly after the clock.
			schedule(e.Now()+float64(a%16), true)
		case 4:
			if len(refs) > 0 {
				e.Cancel(refs[(int(a)<<8|int(b))%len(refs)])
			}
		case 5:
			e.Step()
		case 6:
			e.RunUntil(e.Now() + float64(a%32))
		case 7:
			// Burst of exact ties.
			for j := 0; j < int(a%5)+2; j++ {
				schedule(float64(b%4), false)
			}
		}
	}
	e.Run()
	return fired
}

// diffTraces fails the test when the ladder and the reference heap fired
// different events or the same events at different times or in a different
// order.
func diffTraces(t *testing.T, ladder, heap []firing) {
	t.Helper()
	if len(ladder) != len(heap) {
		t.Fatalf("ladder fired %d events, heap fired %d", len(ladder), len(heap))
	}
	for i := range ladder {
		if ladder[i] != heap[i] {
			t.Fatalf("traces diverge at firing %d: ladder %+v, heap %+v", i, ladder[i], heap[i])
		}
	}
}

// TestLadderMatchesHeapRandom drives the ladder engine and the reference
// heap with identical random op scripts and requires bit-identical firing
// traces. This is the deterministic twin of FuzzLadderVsHeap.
func TestLadderMatchesHeapRandom(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 200; trial++ {
		n := 30 + r.Intn(900)
		data := make([]byte, n)
		r.Read(data)
		diffTraces(t, runScript(New(), data), runScript(&refHeap{}, data))
	}
}

// TestCancelAcrossTiers pins eager cancellation from every tier the ladder
// has: the sorted bottom window, a rung bucket, and the top overflow.
func TestCancelAcrossTiers(t *testing.T) {
	e := New()
	var got []float64
	note := func(d float64) Handler {
		return func(en *Engine) { got = append(got, en.Now()) }
	}
	// Build a populated ladder: spread events force a rung spawn on the
	// first Step, leaving survivors across bottom, rungs and top.
	var refs []EventRef
	for i := 0; i < 400; i++ {
		refs = append(refs, e.Schedule(float64(i)+0.5, note(float64(i))))
	}
	if !e.Step() { // consume the earliest; tiers are now materialized
		t.Fatal("step failed")
	}
	// Late events inserted now land in top; near events in bottom.
	late := e.Schedule(1e6, note(1e6))
	near := e.Schedule(0.25, note(0.25))
	for i := 1; i < 400; i += 2 {
		e.Cancel(refs[i])
	}
	e.Cancel(late)
	e.Cancel(near)
	if e.Len() != 199 {
		t.Fatalf("Len = %d after cancels, want 199", e.Len())
	}
	e.Run()
	if len(got) != 200 { // the stepped event plus 199 even-index survivors
		t.Fatalf("fired %d events, want 200", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("events fired out of order: %v then %v", got[i-1], got[i])
		}
	}
}

// TestTieOrderAcrossTiers verifies that equal-time events split across
// tiers (old ones already bucketed, new ones scheduled later into top)
// still fire in scheduling order.
func TestTieOrderAcrossTiers(t *testing.T) {
	e := New()
	var got []int
	add := func(id int, at float64) {
		e.ScheduleAt(at, func(*Engine) { got = append(got, id) })
	}
	add(0, 5)
	add(1, 5)
	e.Step()  // fires id 0; id 1's bucket is now the bottom window
	add(2, 5) // equal time, scheduled later: must fire after id 1
	add(3, 5)
	e.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order = %v, want %v", got, want)
		}
	}
}

// TestSameInstantFlood covers the ladder's indivisible-bucket fallback:
// thousands of events at one instant cannot be subdivided into finer rungs
// and must still fire in seq order without spinning.
func TestSameInstantFlood(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 5000; i++ {
		i := i
		e.ScheduleAt(7, func(*Engine) { got = append(got, i) })
	}
	e.Run()
	if len(got) != 5000 {
		t.Fatalf("fired %d, want 5000", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("flood fired out of seq order at %d: got %d", i, got[i])
		}
	}
}

// TestHugeTimeSpread covers spawn geometry under extreme time ranges,
// including +Inf fire times, which the heap accepted and the ladder must
// too.
func TestHugeTimeSpread(t *testing.T) {
	e := New()
	var got []float64
	times := []float64{1e-9, 1, 1e9, 1e17, math.Inf(1), 2, 3e8, math.Inf(1), 1e-3}
	for _, at := range times {
		at := at
		e.ScheduleAt(at, func(en *Engine) { got = append(got, en.Now()) })
	}
	e.Run()
	if len(got) != len(times) {
		t.Fatalf("fired %d, want %d", len(got), len(times))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order: %v after %v", got[i], got[i-1])
		}
	}
}

// TestLadderReusesRungs pins the steady-state allocation contract at the
// structure level: a long self-rescheduling churn must recycle rungs
// through the free-list rather than growing them without bound.
func TestLadderReusesRungs(t *testing.T) {
	e := New()
	var next func(*Engine, any)
	next = func(en *Engine, arg any) {
		en.ScheduleFunc(1.25, next, arg)
	}
	for i := 0; i < 512; i++ {
		e.ScheduleFunc(1+float64(i%13)/13, next, nil)
	}
	for i := 0; i < 200000; i++ {
		e.Step()
	}
	if live := len(e.lq.rungs); live > maxRungs {
		t.Fatalf("rung stack grew to %d, cap is %d", live, maxRungs)
	}
	if free := len(e.lq.free); free > maxRungs+1 {
		t.Fatalf("rung free-list grew to %d, want <= %d", free, maxRungs+1)
	}
	if e.Len() != 512 {
		t.Fatalf("Len = %d, want 512 (pure churn)", e.Len())
	}
}

// retained totals the item arrays the ladder holds on to — bottom, top,
// every slot of every live and free rung, and the pool — as capacity and
// as queued length, both in items.
func (l *ladder) retained() (capacity, length int) {
	add := func(s []item) {
		capacity += cap(s)
		length += len(s)
	}
	add(l.bottom)
	add(l.top)
	for _, rs := range [][]*rung{l.rungs, l.free} {
		for _, r := range rs {
			for _, bk := range r.bucket {
				add(bk)
			}
		}
	}
	for _, class := range l.pool {
		for _, s := range class {
			add(s)
		}
	}
	return capacity, length
}

// churnCycle is one warm-run-shaped load: streams self-rescheduling
// event streams, seeded from a far-future spread so the first Step
// re-buckets them out of top, each firing scheduling its successor after
// an exponential delay with an occasional heavy-tail stretch, plus a
// short timer that is cancelled straight away. The run stops after
// steps events with the whole population still queued, as a replication
// does when its workload completes.
func churnCycle(e *Engine, seed int64, streams, steps int) {
	r := rand.New(rand.NewSource(seed))
	mean := 50 + r.Float64()*950
	var next Handler
	next = func(en *Engine) {
		d := r.ExpFloat64() * mean
		if r.Intn(16) == 0 {
			d *= 40
		}
		en.Schedule(d, next)
		en.Cancel(en.Schedule(r.Float64()*mean, next))
	}
	for i := 0; i < streams; i++ {
		e.Schedule(r.ExpFloat64()*mean*4, next)
	}
	for i := 0; i < steps && e.Step(); i++ {
	}
}

// TestWarmLadderRetentionBounded gates what a warm engine keeps across
// Reset: over eight differently seeded churn cycles on one engine, the
// item capacity the ladder retains stays within a small multiple of the
// peak queued population, plus poolMin items per rung slot (the small
// array a wide rung's slot keeps), and stops growing after the second
// cycle. "Stops growing" allows 2 %: the pool keeps each capacity class's
// peak simultaneous demand, and a new seed can nudge a peak up by a few
// arrays, where per-slot high-water marks grow by a tenth over the same
// cycles. Every retained array is empty after Reset: pooled storage never
// carries items into the next run.
func TestWarmLadderRetentionBounded(t *testing.T) {
	const streams, cycles = 50000, 8
	e := New()
	var after2 int
	for c := 1; c <= cycles; c++ {
		churnCycle(e, int64(c), streams, 4*streams)
		peak := e.Len()
		e.Reset()
		capacity, length := e.lq.retained()
		if length != 0 {
			t.Fatalf("cycle %d: %d items still held after Reset", c, length)
		}
		slots := maxSpawnBuckets * (len(e.lq.rungs) + len(e.lq.free))
		if bound := 4*peak + poolMin*slots; capacity > bound {
			t.Errorf("cycle %d: ladder retains %d items, bound 4×%d queued + %d×%d slots = %d",
				c, capacity, peak, poolMin, slots, bound)
		}
		switch {
		case c == 2:
			after2 = capacity
		case c > 2 && capacity > after2+after2/50:
			t.Errorf("cycle %d: ladder retains %d items, up more than 2%% from %d after cycle 2", c, capacity, after2)
		}
	}
}

// TestPeekDoesNotDisturbOrder runs RunUntil in tiny increments (forcing
// peek-driven refills between firings) and checks the firing order and
// count match a plain Run of the same schedule.
func TestPeekDoesNotDisturbOrder(t *testing.T) {
	e := New()
	var got []float64
	for i := 0; i < 300; i++ {
		e.ScheduleAt(float64(i%60)*1.5, func(en *Engine) { got = append(got, en.Now()) })
	}
	for stop := 0.0; stop < 100; stop += 0.25 {
		e.RunUntil(stop)
	}
	e.Run()
	if len(got) != 300 {
		t.Fatalf("fired %d, want 300", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("RunUntil increments broke order at firing %d: %v after %v",
				i, got[i], got[i-1])
		}
	}
}

// benchChurn is the steady-state event churn at a fixed queue depth with
// continuously varying (LCG-derived) delays — the shape of the simulator's
// Weibull availability and checkpoint event streams: depth self-scheduling
// streams, each firing scheduling its successor.
func benchChurn[Q queue[Q, H, R], H ~func(Q), R any](b *testing.B, e Q, depth int) {
	b.Helper()
	for i := 0; i < depth; i++ {
		x := uint64(i)*0x9e3779b97f4a7c15 + 1
		var next H
		next = H(func(Q) {
			x = x*6364136223846793005 + 1442695040888963407
			e.Schedule(0.5+float64(x>>40)/float64(1<<24)*32, next)
		})
		e.Schedule(float64(i%97)/7+0.1, next)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkQueueChurn measures per-event cost of the ladder engine and of
// the reference heap across queue depths.
func BenchmarkQueueChurn(b *testing.B) {
	for _, depth := range []int{64, 1024, 16384, 262144} {
		b.Run(fmt.Sprintf("ladder/depth=%d", depth), func(b *testing.B) {
			benchChurn(b, New(), depth)
		})
		b.Run(fmt.Sprintf("heap/depth=%d", depth), func(b *testing.B) {
			benchChurn(b, &refHeap{}, depth)
		})
	}
}
