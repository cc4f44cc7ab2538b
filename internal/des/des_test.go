package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3, func(*Engine) { got = append(got, 3) })
	e.Schedule(1, func(*Engine) { got = append(got, 1) })
	e.Schedule(2, func(*Engine) { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var got []string
	e.Schedule(5, func(*Engine) { got = append(got, "a") })
	e.Schedule(5, func(*Engine) { got = append(got, "b") })
	e.Schedule(5, func(*Engine) { got = append(got, "c") })
	e.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie order = %v, want [a b c]", got)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func(*Engine) { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending after Schedule")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("event should not be pending after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and zero-ref cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(EventRef{})
}

// TestStaleRefAfterRecycle pins the pool-safety contract: a ref to a fired
// event must stay permanently stale even after the engine reuses the
// event's storage, so cancelling it never kills an unrelated event.
func TestStaleRefAfterRecycle(t *testing.T) {
	e := New()
	first := e.Schedule(1, func(*Engine) {})
	e.Run()
	if first.Pending() {
		t.Fatal("fired event still pending")
	}
	// The pool now holds the fired event; this Schedule reuses it.
	fired := false
	second := e.Schedule(1, func(*Engine) { fired = true })
	if !second.Pending() {
		t.Fatal("second event should be pending")
	}
	e.Cancel(first) // stale ref: must not cancel the recycled event
	if !second.Pending() {
		t.Fatal("stale ref cancelled a recycled event")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event never fired")
	}
}

// TestEventPoolReuse verifies the steady-state loop recycles storage: far
// more events fire than distinct event structs are ever allocated.
func TestEventPoolReuse(t *testing.T) {
	e := New()
	var chain func(*Engine)
	n := 0
	chain = func(en *Engine) {
		n++
		if n < 1000 {
			en.Schedule(1, chain)
		}
	}
	e.Schedule(1, chain)
	e.Run()
	if n != 1000 {
		t.Fatalf("fired %d, want 1000", n)
	}
	if got := len(e.mem.slabs); got != 1 {
		t.Fatalf("arena grew to %d slabs, want 1 (storage recycled)", got)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []float64
	var evs []EventRef
	times := []float64{9, 4, 7, 1, 8, 2, 6, 3, 5}
	for _, d := range times {
		d := d
		evs = append(evs, e.Schedule(d, func(*Engine) { got = append(got, d) }))
	}
	// Cancel events with odd times.
	for i, d := range times {
		if int(d)%2 == 1 {
			e.Cancel(evs[i])
		}
	}
	e.Run()
	want := []float64{2, 4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestScheduleAt(t *testing.T) {
	e := New()
	var at float64
	e.ScheduleAt(42, func(e *Engine) { at = e.Now() })
	e.Run()
	if at != 42 {
		t.Fatalf("fired at %v, want 42", at)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	New().Schedule(-1, func(*Engine) {})
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for schedule in the past")
		}
	}()
	e.ScheduleAt(5, func(*Engine) {})
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil handler")
		}
	}()
	New().Schedule(1, nil)
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []float64
	for _, d := range []float64{1, 2, 3, 4, 5} {
		d := d
		e.Schedule(d, func(*Engine) { got = append(got, d) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("fired %d events, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	// Advancing to a time with no events moves the clock.
	e.RunUntil(3.5)
	if e.Now() != 3.5 {
		t.Fatalf("Now = %v, want 3.5", e.Now())
	}
	e.Run()
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	e.Schedule(1, func(e *Engine) { count++; e.Stop() })
	e.Schedule(2, func(*Engine) { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (stopped after first event)", count)
	}
	if !e.Stopped() {
		t.Fatal("engine should report stopped")
	}
	if e.Len() != 1 {
		t.Fatalf("queue length = %d, want 1 residual event", e.Len())
	}
}

func TestHandlerSchedulesMore(t *testing.T) {
	e := New()
	depth := 0
	var recurse Handler
	recurse = func(e *Engine) {
		depth++
		if depth < 100 {
			e.Schedule(1, recurse)
		}
	}
	e.Schedule(1, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func(*Engine) {})
	}
	e.Run()
	if e.Fired() != 10 {
		t.Fatalf("Fired = %d, want 10", e.Fired())
	}
}

// TestHeapPropertyRandom exercises the custom heap with random interleaved
// schedules and cancellations and checks events fire in nondecreasing
// time order.
func TestHeapPropertyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := New()
		var fired []float64
		var live []EventRef
		for i := 0; i < 500; i++ {
			d := r.Float64() * 1000
			live = append(live, e.Schedule(d, func(*Engine) { fired = append(fired, d) }))
			if r.Intn(3) == 0 && len(live) > 0 {
				k := r.Intn(len(live))
				e.Cancel(live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
		e.Run()
		if !sort.Float64sAreSorted(fired) {
			t.Fatalf("trial %d: events fired out of order", trial)
		}
		if len(fired) != len(live) {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(fired), len(live))
		}
	}
}

// Property: for any set of non-negative delays, running the engine fires
// exactly one event per delay in sorted order.
func TestQuickFiringOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var fired []float64
		for _, d := range delays {
			d := float64(d)
			e.Schedule(d, func(*Engine) { fired = append(fired, d) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New()
		var fired []float64
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 1000; i++ {
			d := r.Float64() * 10
			e.Schedule(d, func(e *Engine) { fired = append(fired, e.Now()) })
		}
		e.Run()
		return fired
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	delays := make([]float64, 10000)
	for i := range delays {
		delays[i] = r.Float64() * 1e6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New()
		for _, d := range delays {
			e.Schedule(d, func(*Engine) {})
		}
		e.Run()
	}
}

// eventLoopEngine returns an engine loaded with the steady-state event
// churn the simulator core exercises: a pool of pending events where every
// firing schedules a successor through the no-closure ScheduleFunc path,
// so each Step is one pop and one insert.
func eventLoopEngine() *Engine {
	e := New()
	var next func(*Engine, any)
	next = func(en *Engine, arg any) {
		en.ScheduleFunc(1, next, arg)
	}
	// Keep a realistic queue depth.
	for i := 0; i < 1024; i++ {
		e.ScheduleFunc(float64(i%7)+1, next, nil)
	}
	return e
}

// scheduleCancel is one schedule-then-cancel cycle (the simulator cancels
// sibling events whenever a replica wins a task) on an engine that
// cancelLoopEngine loaded.
func scheduleCancel(e *Engine) { e.Cancel(e.ScheduleFuncAt(e.Now()+1, nopFunc, nil)) }

func nopFunc(*Engine, any) {}

// cancelLoopEngine returns a ladder engine holding 1024 pending events
// for scheduleCancel to insert among.
func cancelLoopEngine() *Engine {
	e := New()
	for i := 0; i < 1024; i++ {
		e.ScheduleFunc(float64(i+1), nopFunc, nil)
	}
	return e
}

// BenchmarkEventLoop measures the event churn of eventLoopEngine. With the
// event pool this loop is allocation-free; TestWarmEngineZeroAlloc gates it.
func BenchmarkEventLoop(b *testing.B) {
	e := eventLoopEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkScheduleCancel measures the schedule-then-cancel cycle.
func BenchmarkScheduleCancel(b *testing.B) {
	e := cancelLoopEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheduleCancel(e)
	}
}

// TestWarmEngineZeroAlloc gates the warm ladder engine's hot cycle at 0
// allocations: a Step whose handler schedules its successor, and a
// ScheduleFuncAt cancelled straight away.
func TestWarmEngineZeroAlloc(t *testing.T) {
	loop := eventLoopEngine()
	cancel := cancelLoopEngine()
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"step", func() { loop.Step() }},
		{"schedule-cancel", func() { scheduleCancel(cancel) }},
	} {
		for i := 0; i < 10000; i++ { // let the ladder settle into its rungs
			tc.op()
		}
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.0f times per event", tc.name, allocs)
		}
	}
}

// TestReset exercises warm-engine reuse on the ladder-queue engine: after
// Reset the clock is back at zero, the queue is empty, outstanding refs are
// stale, and a replayed schedule fires in exactly the same order as on a
// fresh engine.
func TestReset(t *testing.T) {
	t.Run("ladder", func(t *testing.T) {
		run := func(e *Engine) []float64 {
			var fired []float64
			for _, d := range []float64{5, 1, 9, 3, 3, 7, 1e6, 2e6} {
				e.Schedule(d, func(e *Engine) { fired = append(fired, e.Now()) })
			}
			e.RunUntil(8)
			return fired
		}
		want := run(New())

		e := New()
		run(e)
		if e.Len() == 0 {
			t.Fatal("expected far-future events still queued before Reset")
		}
		ref := e.Schedule(100, func(*Engine) { t.Fatal("fired across Reset") })
		e.Stop()
		e.Reset()
		if e.Len() != 0 || e.Now() != 0 || e.Fired() != 0 || e.Stopped() {
			t.Fatalf("Reset left state: len=%d now=%v fired=%d stopped=%v",
				e.Len(), e.Now(), e.Fired(), e.Stopped())
		}
		if ref.Pending() {
			t.Fatal("ref still pending after Reset")
		}
		e.Cancel(ref) // must be a no-op, not a corruption
		got := run(e)
		if len(got) != len(want) {
			t.Fatalf("replay fired %d events, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replay event %d at %v, want %v", i, got[i], want[i])
			}
		}
		e.Run() // drain the far-future remainder; must not panic
	})
}

// TestResetKeepsArenaWarm pins the point of Reset: a second identical run
// on a reset ladder engine grows no new slabs.
func TestResetKeepsArenaWarm(t *testing.T) {
	e := New()
	load := func() {
		var refs []EventRef
		for i := 0; i < 300; i++ {
			refs = append(refs, e.Schedule(float64(i%7), func(*Engine) {}))
		}
		for i := 0; i < len(refs); i += 3 {
			e.Cancel(refs[i])
		}
		e.Run()
	}
	load()
	slabs := len(e.mem.slabs)
	e.Reset()
	load()
	if got := len(e.mem.slabs); got != slabs {
		t.Fatalf("reset engine grew arena: %d slabs, was %d", got, slabs)
	}
}
