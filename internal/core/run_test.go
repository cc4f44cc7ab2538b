package core

import (
	"math"
	"testing"

	"botgrid/internal/checkpoint"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
	"botgrid/internal/workload"
)

// smallRun returns a fast end-to-end configuration: a 10-machine grid and
// 20-task bags.
func smallRun(policy PolicyKind, h grid.Heterogeneity, a grid.Availability, util float64) RunConfig {
	gc := grid.DefaultConfig(h, a)
	gc.TotalPower = 100
	cc := checkpoint.DefaultConfig()
	lambda := workload.LambdaForUtilization(util, 20000, EffectivePower(gc, cc))
	return RunConfig{
		Seed: 1,
		Grid: gc,
		Workload: workload.Config{
			Granularities: []float64{1000},
			AppSize:       20000,
			Spread:        0.5,
			Lambda:        lambda,
		},
		Policy:  policy,
		NumBoTs: 30,
		Warmup:  5,
	}
}

func TestRunEndToEnd(t *testing.T) {
	for _, kind := range PaperKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(smallRun(kind, grid.Hom, grid.HighAvail, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			if res.Saturated {
				t.Fatal("low-intensity run should not saturate")
			}
			if res.Completed != 30 || res.Submitted != 30 {
				t.Fatalf("completed/submitted = %d/%d, want 30/30", res.Completed, res.Submitted)
			}
			if len(res.Bags) != 25 {
				t.Fatalf("collected %d bags, want 25 (30 - 5 warmup)", len(res.Bags))
			}
			mean := res.MeanTurnaround()
			if math.IsNaN(mean) || mean <= 0 {
				t.Fatalf("mean turnaround = %v", mean)
			}
			for _, b := range res.Bags {
				if b.Waiting < 0 || b.Makespan <= 0 {
					t.Fatalf("bag %d: waiting %v makespan %v", b.ID, b.Waiting, b.Makespan)
				}
				if math.Abs(b.Turnaround-(b.Waiting+b.Makespan)) > 1e-9 {
					t.Fatalf("bag %d: turnaround identity violated", b.ID)
				}
				// Lower bound: a 20000-ref-second bag on a 100-power
				// grid takes at least 200 s even with perfect packing.
				if b.Turnaround < 100 {
					t.Fatalf("bag %d: turnaround %v implausibly small", b.ID, b.Turnaround)
				}
			}
		})
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := smallRun(LongIdle, grid.Het, grid.MedAvail, 0.75)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanTurnaround() != b.MeanTurnaround() || a.EventsFired != b.EventsFired {
		t.Fatalf("same config diverged: %v/%v events %d/%d",
			a.MeanTurnaround(), b.MeanTurnaround(), a.EventsFired, b.EventsFired)
	}
	for i := range a.Bags {
		if a.Bags[i] != b.Bags[i] {
			t.Fatalf("bag %d stats diverged", i)
		}
	}
}

func TestRunSeedMatters(t *testing.T) {
	cfg := smallRun(RR, grid.Hom, grid.LowAvail, 0.5)
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.MeanTurnaround() == b.MeanTurnaround() {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestRunSaturation(t *testing.T) {
	cfg := smallRun(FCFSShare, grid.Hom, grid.HighAvail, 0.5)
	// Overload the grid 5×: the run must be flagged saturated rather than
	// simulating forever.
	cfg.Workload.Lambda *= 10
	cfg.HorizonFactor = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("overloaded run should report saturation")
	}
	if res.Completed >= cfg.NumBoTs {
		t.Fatal("saturated run completed everything, which contradicts the flag")
	}
}

func TestRunFailuresHappen(t *testing.T) {
	res, err := Run(smallRun(FCFSShare, grid.Hom, grid.LowAvail, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicaFailures == 0 {
		t.Fatal("LowAvail run should lose replicas to failures")
	}
	// Tasks of ~100 s wall never reach the 1314 s Young interval; long
	// tasks must checkpoint.
	cfg := smallRun(FCFSShare, grid.Hom, grid.LowAvail, 0.5)
	cfg.Workload.Granularities = []float64{50000} // 5000 s wall per task
	cfg.Workload.AppSize = 200000
	cfg.Workload.Lambda = workload.LambdaForUtilization(
		0.5, 200000, EffectivePower(cfg.Grid, checkpoint.DefaultConfig()))
	cfg.NumBoTs = 10
	cfg.Warmup = 2
	long, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if long.CheckpointSaves == 0 {
		t.Fatal("long tasks under LowAvail should write checkpoints")
	}
	if long.CheckpointRetrieves == 0 {
		t.Fatal("failures after saves should trigger checkpoint retrievals")
	}
}

func TestRunHighAvailFasterThanLow(t *testing.T) {
	// The paper: turnaround roughly doubles from HighAvail to LowAvail.
	// We only require a clear ordering here.
	high, err := Run(smallRun(FCFSShare, grid.Hom, grid.HighAvail, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	low, err := Run(smallRun(FCFSShare, grid.Hom, grid.LowAvail, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if high.Saturated || low.Saturated {
		t.Fatal("unexpected saturation")
	}
	if high.MeanTurnaround() >= low.MeanTurnaround() {
		t.Fatalf("HighAvail (%v) should beat LowAvail (%v)",
			high.MeanTurnaround(), low.MeanTurnaround())
	}
}

func TestRunValidation(t *testing.T) {
	cfg := smallRun(RR, grid.Hom, grid.HighAvail, 0.5)
	cfg.NumBoTs = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("NumBoTs=0 accepted")
	}
	cfg = smallRun(RR, grid.Hom, grid.HighAvail, 0.5)
	cfg.Warmup = cfg.NumBoTs
	if _, err := Run(cfg); err == nil {
		t.Fatal("Warmup=NumBoTs accepted")
	}
	cfg = smallRun(RR, grid.Hom, grid.HighAvail, 0.5)
	cfg.Workload.Lambda = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestEffectivePower(t *testing.T) {
	gc := grid.DefaultConfig(grid.Hom, grid.HighAvail)
	cc := checkpoint.DefaultConfig()
	eff := EffectivePower(gc, cc)
	// 1000 × 0.98 × τ/(τ+480) with τ = sqrt(2·480·88200) ≈ 9203.
	tau := math.Sqrt(2 * 480 * 88200)
	want := 1000 * 0.98 * tau / (tau + 480)
	if math.Abs(eff-want) > 1e-9 {
		t.Fatalf("EffectivePower = %v, want %v", eff, want)
	}
	// Disabling checkpoints removes that overhead.
	ccOff := checkpoint.Config{Enabled: false, TransferLo: 240, TransferHi: 720}
	if got := EffectivePower(gc, ccOff); math.Abs(got-980) > 1e-9 {
		t.Fatalf("EffectivePower without checkpoints = %v, want 980", got)
	}
}

func TestResultHelpers(t *testing.T) {
	var r Result
	if !math.IsNaN(r.MeanTurnaround()) {
		t.Fatal("empty result should have NaN mean")
	}
	r.Bags = []BagStats{{Turnaround: 10}, {Turnaround: 20}}
	if r.MeanTurnaround() != 15 {
		t.Fatalf("mean = %v, want 15", r.MeanTurnaround())
	}
}

func TestRunWithObserver(t *testing.T) {
	counts := struct {
		submitted, completed, started, tasks int
	}{}
	obs := &countObserver{
		submitted: &counts.submitted,
		completed: &counts.completed,
		started:   &counts.started,
		tasks:     &counts.tasks,
	}
	cfg := smallRun(FCFSShare, grid.Hom, grid.HighAvail, 0.5)
	cfg.Observer = obs
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counts.submitted != 30 || counts.completed != res.Completed {
		t.Fatalf("observer counts %+v vs result %d/%d", counts, res.Submitted, res.Completed)
	}
	if counts.started == 0 || counts.tasks == 0 {
		t.Fatal("observer missed replica/task events")
	}
	if counts.started < counts.tasks {
		t.Fatal("replica starts must be >= task completions")
	}
}

type countObserver struct {
	NopObserver
	submitted, completed, started, tasks *int
}

func (o *countObserver) BagSubmitted(float64, *Bag)             { *o.submitted++ }
func (o *countObserver) BagCompleted(float64, *Bag)             { *o.completed++ }
func (o *countObserver) ReplicaStarted(float64, *Replica, bool) { *o.started++ }
func (o *countObserver) TaskCompleted(float64, *Task, int)      { *o.tasks++ }

func TestParsePolicy(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParsePolicy(k.String())
		if err != nil || got != k {
			t.Fatalf("ParsePolicy(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("ParsePolicy accepted nonsense")
	}
}

func TestPolicyThresholds(t *testing.T) {
	if NewPolicy(FCFSExcl, nil).Threshold(2) != math.MaxInt {
		t.Fatal("FCFS-Excl must have unlimited threshold")
	}
	for _, k := range []PolicyKind{FCFSShare, RR, RRNRF, LongIdle, FairShare, SJFKB} {
		if NewPolicy(k, nil).Threshold(2) != 2 {
			t.Fatalf("%v should keep the base threshold", k)
		}
	}
}

func TestRandomPolicyNeedsStream(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPolicy(Random, nil)
}

func TestTaskStateString(t *testing.T) {
	if TaskPending.String() != "pending" || TaskRunning.String() != "running" || TaskDone.String() != "done" {
		t.Fatal("state names wrong")
	}
}

func TestRunFromTrace(t *testing.T) {
	// Replaying the generator's own stream must reproduce the generated
	// run exactly.
	cfg := smallRun(FCFSShare, grid.Hom, grid.HighAvail, 0.5)
	gen, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the same stream the run consumed.
	g := workload.NewGenerator(cfg.Workload,
		rng.Root(cfg.Seed, "tasks"), rng.Root(cfg.Seed, "arrivals"))
	bots := g.Take(cfg.NumBoTs)
	traceCfg := cfg
	traceCfg.Bots = bots
	traceCfg.NumBoTs = 0 // derived from the trace
	rep, err := Run(traceCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != gen.Completed || rep.MeanTurnaround() != gen.MeanTurnaround() {
		t.Fatalf("trace replay diverged: %v vs %v", rep.MeanTurnaround(), gen.MeanTurnaround())
	}
	for i := range gen.Bags {
		if gen.Bags[i] != rep.Bags[i] {
			t.Fatalf("bag %d stats diverged", i)
		}
	}
}

func TestRunFromTraceValidation(t *testing.T) {
	cfg := smallRun(RR, grid.Hom, grid.AlwaysUp, 0.5)
	cfg.Bots = []*workload.BoT{
		{ID: 0, Arrival: 10, Granularity: 1000, TaskWork: []float64{100}},
		{ID: 1, Arrival: 5, Granularity: 1000, TaskWork: []float64{100}},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-order trace accepted")
	}
	cfg.Bots = []*workload.BoT{{ID: 0, Arrival: 0, Granularity: 1000}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("empty trace bag accepted")
	}
	// A valid tiny trace completes even with an invalid Workload config
	// (the trace replaces it).
	cfg.Bots = []*workload.BoT{
		{ID: 0, Arrival: 0, Granularity: 1000, TaskWork: []float64{100, 200}},
	}
	cfg.Workload = workload.Config{}
	cfg.Warmup = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Saturated {
		t.Fatalf("trace run completed=%d saturated=%v", res.Completed, res.Saturated)
	}
}

func TestMixedWorkloadRun(t *testing.T) {
	cfg := smallRun(LongIdle, grid.Het, grid.HighAvail, 0.5)
	cfg.Workload.Granularities = []float64{500, 1000, 2000}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("unexpected saturation")
	}
	grans := map[float64]bool{}
	for _, b := range res.Bags {
		grans[b.Granularity] = true
	}
	if len(grans) < 2 {
		t.Fatalf("mixed workload produced %d granularities, want >= 2", len(grans))
	}
}

func TestSlowdownComputed(t *testing.T) {
	res, err := Run(smallRun(FCFSShare, grid.Hom, grid.HighAvail, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Bags {
		if b.IdealMakespan <= 0 {
			t.Fatalf("bag %d ideal makespan %v", b.ID, b.IdealMakespan)
		}
		if b.Slowdown < 1 {
			t.Fatalf("bag %d slowdown %v < 1 (beats the lower bound?)", b.ID, b.Slowdown)
		}
		if math.Abs(b.Slowdown-b.Turnaround/b.IdealMakespan) > 1e-9 {
			t.Fatalf("bag %d slowdown inconsistent", b.ID)
		}
	}
}
