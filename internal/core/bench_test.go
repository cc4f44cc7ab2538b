package core

import (
	"testing"

	"botgrid/internal/grid"
	"botgrid/internal/rng"
)

// benchScheduler builds a live-mode scheduler mid-flight: 64 active bags
// of 32 tasks, 32 of 128 worker slots busy, the rest of the queue pending.
// This is the state each policy's SelectBag sees on every free machine.
func benchScheduler(k PolicyKind) *Scheduler {
	g := liveGrid(128)
	s := NewLiveScheduler(&fakeClock{}, g, NewPolicy(k, rng.Root(1, "policy")),
		DefaultSchedConfig(), nil)
	works := make([]float64, 32)
	for i := range works {
		works[i] = 100
	}
	for i := 0; i < 64; i++ {
		s.Submit(1000, works)
	}
	for i := 0; i < 32; i++ {
		join(s, g.Machines[i], 0)
	}
	return s
}

// benchSchedulerManyBags builds the adversarial large-grid state: 512
// active bags of 8 tasks on an 8192-slot grid with all but a handful of
// slots busy, so nearly every bag sits at the replication threshold and a
// linear policy must scan deep to find the rare schedulable bag.
func benchSchedulerManyBags(k PolicyKind) *Scheduler {
	const (
		bags     = 512
		tasks    = 8
		machines = bags * tasks * 2 // threshold-2 full replication
		spare    = 3 * tasks        // leave one bag's worth of headroom
	)
	g := liveGrid(machines)
	s := NewLiveScheduler(&fakeClock{}, g, NewPolicy(k, rng.Root(1, "policy")),
		DefaultSchedConfig(), nil)
	works := make([]float64, tasks)
	for i := range works {
		works[i] = 100
	}
	for i := 0; i < bags; i++ {
		s.Submit(1000, works)
	}
	for i := 0; i < machines-spare; i++ {
		join(s, g.Machines[i], 0)
	}
	return s
}

// decisionStates are the two mid-flight states the dispatch decision is
// measured and gated on; prefix names the state in sub-benchmark and
// sub-test names.
var decisionStates = []struct {
	prefix string
	build  func(PolicyKind) *Scheduler
}{
	{"", benchScheduler},
	{"manybags/", benchSchedulerManyBags},
}

// BenchmarkDispatchDecision measures each bag-selection policy's
// per-free-machine decision cost — the hot path of the simulation dispatch
// loop and of every fetch served by the live work-dispatch service. The
// "manybags" cases are the large-grid stress the schedulability index
// targets: a near-saturated 512-bag queue.
func BenchmarkDispatchDecision(b *testing.B) {
	for _, st := range decisionStates {
		for _, k := range Kinds {
			b.Run(st.prefix+k.String(), func(b *testing.B) {
				s := st.build(k)
				thr := s.effectiveThreshold()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if s.policy.SelectBag(s, thr) == nil {
						b.Fatal("no schedulable bag")
					}
				}
			})
		}
	}
}

// TestDispatchDecisionZeroAlloc gates every policy's SelectBag at 0
// allocations per decision on both benchmark states: a stray allocation on
// the decision path fails the ordinary test suite.
func TestDispatchDecisionZeroAlloc(t *testing.T) {
	for _, st := range decisionStates {
		for _, k := range Kinds {
			t.Run(st.prefix+k.String(), func(t *testing.T) {
				s := st.build(k)
				thr := s.effectiveThreshold()
				allocs := testing.AllocsPerRun(200, func() {
					if s.policy.SelectBag(s, thr) == nil {
						t.Fatal("no schedulable bag")
					}
				})
				if allocs != 0 {
					t.Fatalf("SelectBag allocates %.0f times per decision", allocs)
				}
			})
		}
	}
}

// TestRecycledSubmitZeroAlloc gates the recycling Submit at 0 allocations:
// on a warm simulation scheduler, a bag that takes the storage of a
// completed bag of equal or larger size allocates nothing, and neither do
// its dispatch and completion, which hand the storage back.
func TestRecycledSubmitZeroAlloc(t *testing.T) {
	big := []float64{100, 200, 300, 400, 500, 600, 700, 800}
	small := big[:5]
	for _, k := range Kinds {
		t.Run(k.String(), func(t *testing.T) {
			eng, _, s := fixture(t, []float64{10, 10, 10, 10}, k, DefaultSchedConfig(), grid.AlwaysUp, 0)
			s.recycle = true
			cycle := func(works []float64) {
				s.Submit(1000, works)
				eng.Run()
				if s.Completed() != s.Submitted() {
					t.Fatal("bag did not complete")
				}
			}
			cycle(big) // the storage every measured Submit reuses
			allocs := testing.AllocsPerRun(100, func() {
				cycle(big)
				cycle(small)
			})
			if allocs != 0 {
				t.Fatalf("recycled submit-to-completion cycle allocates %.0f times", allocs)
			}
		})
	}
}
