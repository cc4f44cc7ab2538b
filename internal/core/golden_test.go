package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"botgrid/internal/grid"
)

var updateGolden = flag.Bool("update", false, "rewrite golden simulation outputs")

// goldenRecord pins every externally visible field of one simulation run.
// Turnarounds are the exact per-bag float64 values, so any change to event
// ordering, policy tie-breaking or replica bookkeeping shows up as a diff.
type goldenRecord struct {
	Name                string    `json:"name"`
	Submitted           int       `json:"submitted"`
	Completed           int       `json:"completed"`
	Saturated           bool      `json:"saturated"`
	SimEnd              float64   `json:"sim_end"`
	EventsFired         uint64    `json:"events_fired"`
	ReplicaFailures     int       `json:"replica_failures"`
	Suspensions         int       `json:"suspensions"`
	TasksCompleted      int       `json:"tasks_completed"`
	ReplicasStarted     int       `json:"replicas_started"`
	ReplicasKilled      int       `json:"replicas_killed"`
	CheckpointSaves     int       `json:"checkpoint_saves"`
	CheckpointRetrieves int       `json:"checkpoint_retrieves"`
	Turnarounds         []float64 `json:"turnarounds"`
}

func recordOf(name string, res Result) goldenRecord {
	return goldenRecord{
		Name:                name,
		Submitted:           res.Submitted,
		Completed:           res.Completed,
		Saturated:           res.Saturated,
		SimEnd:              res.SimEnd,
		EventsFired:         res.EventsFired,
		ReplicaFailures:     res.ReplicaFailures,
		Suspensions:         res.Suspensions,
		TasksCompleted:      res.TasksCompleted,
		ReplicasStarted:     res.ReplicasStarted,
		ReplicasKilled:      res.ReplicasKilled,
		CheckpointSaves:     res.CheckpointSaves,
		CheckpointRetrieves: res.CheckpointRetrieves,
		Turnarounds:         turnarounds(res),
	}
}

// turnarounds returns res's post-warmup turnaround samples.
func turnarounds(res Result) []float64 {
	out := make([]float64, len(res.Bags))
	for i, b := range res.Bags {
		out[i] = b.Turnaround
	}
	return out
}

// goldenConfigs covers every policy plus the scheduler's behavioral knobs:
// dynamic replication, suspend-on-failure, fastest-machine-first,
// knowledge-based task orders and a non-default threshold, across grid
// heterogeneity and availability regimes.
func goldenConfigs() []struct {
	name string
	cfg  RunConfig
} {
	mk := func(p PolicyKind, h grid.Heterogeneity, a grid.Availability, util float64, seed uint64) RunConfig {
		cfg := smallRun(p, h, a, util)
		cfg.Seed = seed
		cfg.NumBoTs = 20
		cfg.Warmup = 2
		return cfg
	}
	var out []struct {
		name string
		cfg  RunConfig
	}
	add := func(name string, cfg RunConfig) {
		out = append(out, struct {
			name string
			cfg  RunConfig
		}{name, cfg})
	}
	// Every policy under the failure-heavy heterogeneous regime, which
	// exercises checkpoint restarts and front-of-queue resubmission.
	for _, k := range Kinds {
		add(k.String(), mk(k, grid.Het, grid.MedAvail, 0.7, 11))
	}
	// Knob coverage.
	dyn := mk(FCFSShare, grid.Hom, grid.HighAvail, 0.6, 7)
	dyn.Sched.DynamicReplication = true
	add("FCFS-Share/dynamic-replication", dyn)

	sus := mk(RR, grid.Het, grid.LowAvail, 0.5, 13)
	sus.Sched.SuspendOnFailure = true
	add("RR/suspend-on-failure", sus)

	fmf := mk(LongIdle, grid.Het, grid.HighAvail, 0.7, 17)
	fmf.Sched.FastestMachineFirst = true
	add("LongIdle/fastest-machine-first", fmf)

	lpt := mk(SJFKB, grid.Hom, grid.MedAvail, 0.6, 19)
	lpt.Sched.TaskOrder = LongestFirst
	add("SJF-KB/longest-first", lpt)

	spt := mk(FairShare, grid.Het, grid.HighAvail, 0.8, 23)
	spt.Sched.TaskOrder = ShortestFirst
	spt.Sched.Threshold = 3
	add("FairShare/shortest-first-thr3", spt)

	sat := mk(RRNRF, grid.Hom, grid.LowAvail, 0.6, 29)
	sat.Workload.Lambda *= 8
	sat.HorizonFactor = 2
	add("RR-NRF/saturated", sat)
	return out
}

// TestGoldenRuns asserts that fixed seeds yield bit-identical results both
// across two runs in this process and against the goldens generated before
// the indexed-scheduler refactor. The first run of each config is a plain
// Run on a fresh engine; the second goes through one Runner shared by every
// config, the warm-engine path the sweep pool takes. Regenerate with `go
// test -run Golden -update ./internal/core` — but a diff on unchanged
// semantics is a bug, not a reason to regenerate.
func TestGoldenRuns(t *testing.T) {
	path := filepath.Join("testdata", "golden_runs.json")
	var got []goldenRecord
	var warm Runner
	for _, c := range goldenConfigs() {
		a, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := warm.Run(c.cfg)
		if err != nil {
			t.Fatalf("%s (warm Runner): %v", c.name, err)
		}
		ra, rb := recordOf(c.name, a), recordOf(c.name, b)
		if !recordsEqual(ra, rb) {
			t.Errorf("%s: the warm Runner diverged from a fresh Run", c.name)
		}
		got = append(got, ra)
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(got), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update to generate): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d records, test produced %d", len(want), len(got))
	}
	for i := range got {
		if !recordsEqual(got[i], want[i]) {
			t.Errorf("%s: output diverged from pre-refactor golden\n got: %+v\nwant: %+v",
				got[i].Name, got[i], want[i])
		}
	}
}

func recordsEqual(a, b goldenRecord) bool {
	if a.Name != b.Name || a.Submitted != b.Submitted || a.Completed != b.Completed ||
		a.Saturated != b.Saturated || a.SimEnd != b.SimEnd || a.EventsFired != b.EventsFired ||
		a.ReplicaFailures != b.ReplicaFailures || a.Suspensions != b.Suspensions ||
		a.TasksCompleted != b.TasksCompleted || a.ReplicasStarted != b.ReplicasStarted ||
		a.ReplicasKilled != b.ReplicasKilled || a.CheckpointSaves != b.CheckpointSaves ||
		a.CheckpointRetrieves != b.CheckpointRetrieves || len(a.Turnarounds) != len(b.Turnarounds) {
		return false
	}
	for i := range a.Turnarounds {
		if a.Turnarounds[i] != b.Turnarounds[i] {
			return false
		}
	}
	return true
}
