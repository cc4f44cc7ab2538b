package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"botgrid/internal/core"
)

// sweepDigest hashes the full JSON export of every figure in catalog
// order — the parity pin: two result sets digest equal iff every exported
// cell statistic is bit-identical.
func sweepDigest(t *testing.T, rs map[string]*FigureResult) string {
	t.Helper()
	h := sha256.New()
	for _, id := range SortedIDs(rs) {
		if err := rs[id].WriteJSON(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSweepParallelismInvariant is the golden parity test of the pool
// engine: a two-figure sweep with adaptive CI stopping engaged must digest
// identically at -parallel=1, 4 and GOMAXPROCS. The options leave room
// between MinReps and MaxReps and set a target the cells actually chase,
// so the deterministic wave decisions (not just fixed replication counts)
// are what is being pinned.
func TestSweepParallelismInvariant(t *testing.T) {
	o := QuickOptions(9)
	o.Granularities = []float64{1000, 25000}
	o.Policies = []core.PolicyKind{core.FCFSShare, core.RR, core.LongIdle}
	o.MinReps, o.MaxReps = 2, 6
	o.RelErr = 0.10
	o.NumBoTs, o.Warmup = 40, 5
	f1, _ := FigureByID("F1a")
	f2, _ := FigureByID("F2b")
	figs := []Figure{f1, f2}

	var want string
	adaptive := false
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		o.Parallelism = par
		rs, err := RunSweep(figs, o)
		if err != nil {
			t.Fatal(err)
		}
		d := sweepDigest(t, rs)
		if want == "" {
			want = d
			for _, fr := range rs {
				for _, row := range fr.Cells {
					for _, c := range row {
						if c.Reps > o.MinReps {
							adaptive = true
						}
					}
				}
			}
		} else if d != want {
			t.Fatalf("sweep digest diverged at parallel=%d:\n  got  %s\n  want %s", par, d, want)
		}
	}
	if !adaptive {
		t.Fatal("no cell ran past MinReps; the parity test is not exercising adaptive stopping")
	}
}

// TestRunFiguresSharedPool checks that a multi-figure sweep feeds
// every figure through the one pool and returns each panel fully
// populated and identical to a solo run of the same panel.
func TestRunFiguresSharedPool(t *testing.T) {
	o := QuickOptions(13)
	o.Granularities = []float64{1000}
	o.Policies = []core.PolicyKind{core.FCFSShare, core.RR}
	o.MinReps, o.MaxReps = 2, 2
	o.NumBoTs, o.Warmup = 30, 5
	f1, _ := FigureByID("F1a")
	f2, _ := FigureByID("F2a")

	rs, err := RunSweep([]Figure{f1, f2}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d figures, want 2", len(rs))
	}
	solo, err := RunFigure(f2, o)
	if err != nil {
		t.Fatal(err)
	}
	got := rs["F2a"].Cells[0][0]
	want := solo.Cells[0][0]
	if got != want {
		t.Fatalf("F2a cell from shared pool diverged from solo run:\n  pool %+v\n  solo %+v", got, want)
	}
}

// fakeResult builds a one-bag replication result for driving cellState
// directly.
func fakeResult(turnaround float64) core.Result {
	return core.Result{
		Bags: []core.BagStats{{
			Turnaround: turnaround,
			Waiting:    turnaround / 4,
			Makespan:   3 * turnaround / 4,
			Slowdown:   1.5,
		}},
		TasksCompleted:  10,
		ReplicasStarted: 12,
	}
}

// TestSpeculativeOverrunDiscarded drives one cell's wave state machine by
// hand: replication 1 lands before 0 (buffered), folding 0 and 1 meets the
// CI target and stops the cell, and the speculative replication 2 that was
// already in flight lands afterwards — it must be discarded without
// touching the published Cell.
func TestSpeculativeOverrunDiscarded(t *testing.T) {
	var out Cell
	c := &cellState{
		label:      "unit",
		out:        &out,
		minReps:    2,
		maxReps:    10,
		relErr:     0.5,
		confidence: 0.95,
		buffered:   make(map[int]core.Result),
	}
	c.launched = c.firstWave()
	if c.launched != 2 {
		t.Fatalf("first wave launched %d reps, want MinReps=2", c.launched)
	}

	// Out-of-order arrival: rep 1 first. Nothing folds, nothing launches.
	launch, done := c.offer(1, fakeResult(1000))
	if done || len(launch) != 0 || c.folded != 0 {
		t.Fatalf("rep 1 out of order: launch=%v done=%v folded=%d", launch, done, c.folded)
	}

	// Rep 0 arrives: folds 0 then 1; two identical means give a degenerate
	// CI (half-width 0), so the deterministic rule stops at 2 reps.
	launch, done = c.offer(0, fakeResult(1000))
	if !done || len(launch) != 0 {
		t.Fatalf("cell did not stop at the CI target: launch=%v done=%v", launch, done)
	}
	if out.Reps != 2 || out.CI.Mean != 1000 {
		t.Fatalf("published cell wrong: %+v", out)
	}
	published := out

	// The speculative over-run lands beyond the deterministic stop point:
	// it must not leak into the published stats.
	launch, done = c.offer(2, fakeResult(9e9))
	if done || len(launch) != 0 {
		t.Fatalf("over-run result acted on the cell: launch=%v done=%v", launch, done)
	}
	if out != published {
		t.Fatalf("published cell changed after over-run:\n  before %+v\n  after  %+v", published, out)
	}
}

// TestSpeculationWindow checks that once the first wave folds without
// meeting the target, the frontier advances with at most specWindow
// replications in flight beyond it.
func TestSpeculationWindow(t *testing.T) {
	var out Cell
	c := &cellState{
		label: "unit", out: &out,
		minReps: 2, maxReps: 10,
		relErr: 1e-9, confidence: 0.95, // unreachable target: never stops early
		buffered: make(map[int]core.Result),
	}
	c.launched = c.firstWave()
	launch, done := c.offer(0, fakeResult(1000))
	if done {
		t.Fatal("stopped after one rep")
	}
	// Folding rep 0 advances the frontier: rep 2 launches so the pipeline
	// stays specWindow deep.
	if len(launch) != 1 || launch[0] != 2 || c.launched != c.folded+specWindow {
		t.Fatalf("after rep 0: launch=%v launched=%d folded=%d", launch, c.launched, c.folded)
	}
	launch, done = c.offer(1, fakeResult(2000))
	if done {
		t.Fatal("stopped despite unreachable CI target")
	}
	// Same cadence after rep 1: exactly one new launch (rep 3), never more
	// than specWindow in flight beyond the fold frontier.
	if len(launch) != 1 || launch[0] != 3 || c.launched != c.folded+specWindow {
		t.Fatalf("after rep 1: launch=%v launched=%d folded=%d", launch, c.launched, c.folded)
	}
	// Exhaustion: folding up to maxReps publishes.
	for rep := 2; rep < c.maxReps; rep++ {
		if _, done = c.offer(rep, fakeResult(float64(1000*rep))); done {
			break
		}
	}
	if !done || out.Reps != c.maxReps {
		t.Fatalf("cell did not exhaust at MaxReps: done=%v reps=%d", done, out.Reps)
	}
}

// TestSweepCollectsEveryCellError makes every cell of a sweep fail (negative
// granularities are rejected by the workload validator at run time, after
// option validation passes) and asserts the joined error names each broken
// cell rather than just the first.
func TestSweepCollectsEveryCellError(t *testing.T) {
	o := QuickOptions(4)
	o.Granularities = []float64{-5, -7}
	o.Policies = []core.PolicyKind{core.FCFSShare}
	o.MinReps, o.MaxReps = 1, 1
	f, _ := FigureByID("F1a")
	rs, err := RunSweep([]Figure{f}, o)
	if err == nil {
		t.Fatal("sweep with invalid granularities succeeded")
	}
	for _, wantCell := range []string{"gran=-5", "gran=-7"} {
		if !strings.Contains(err.Error(), wantCell) {
			t.Fatalf("joined error missing %q:\n%v", wantCell, err)
		}
	}
	// The partial result still carries both cells' coordinates.
	if rs == nil || len(rs["F1a"].Cells) != 2 {
		t.Fatalf("partial result missing: %+v", rs)
	}
	if got := rs["F1a"].Cells[1][0].Granularity; got != -7 {
		t.Fatalf("failed cell coordinates not published: gran=%v", got)
	}
}
