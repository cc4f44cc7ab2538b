package experiment

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"botgrid/internal/core"
	"botgrid/internal/grid"
	"botgrid/internal/multisite"
	"botgrid/internal/stats"
)

// This file keeps the ablation studies' original sequential replication
// loops as oracles: the single-knob ablate loop, the A11 loop (cold
// core.Run for the centralized variant) and the A3 loop. The studies now
// run through the sweep pool; TestAblationsMatchSequentialOracle holds
// them to these loops bit for bit at any parallelism.

// ablate runs replications for a list of labelled config transformers over
// a fixed (figure, granularity, policy) point.
func oracleAblate(name, caption string, f Figure, o Options, gran float64, pol core.PolicyKind,
	variants []variant) (*AblationResult, error) {
	o = o.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ar := &AblationResult{Name: name, Caption: caption}
	// One warm engine across every variant and replication: ablation rows
	// run sequentially, so the runner's arena and queue capacities carry
	// over (results are bit-identical to cold runs; see core.Runner).
	var runner core.Runner
	for _, v := range variants {
		var acc, overhead stats.Accumulator
		row := AblationRow{Label: v.label}
		for rep := 0; rep < o.MinReps; rep++ {
			cfg := o.CellConfig(f, gran, pol, rep)
			v.mut(&cfg)
			res, err := runner.Run(cfg)
			if err != nil {
				return nil, err
			}
			if res.Saturated {
				row.SaturatedReps++
			}
			if len(res.Bags) > 0 {
				acc.Add(res.MeanTurnaround())
			}
			if res.TasksCompleted > 0 {
				overhead.Add(float64(res.ReplicasStarted) / float64(res.TasksCompleted))
			}
			row.Reps++
		}
		row.CI = acc.CI(o.Confidence)
		row.ReplicaOverhead = overhead.Mean()
		ar.Rows = append(ar.Rows, row)
	}
	return ar, nil
}

// MixedWorkloadStudy runs the mixed-granularity workload for each policy.
func oracleMixedWorkloadStudy(o Options) ([]MixedRow, error) {
	o = o.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	f := Figure{ID: "A3", Caption: "mixed granularities", Het: grid.Het, Avail: grid.MedAvail, Util: 0.75}
	var rows []MixedRow
	var runner core.Runner // warm engine across policies and replications
	for _, pol := range o.Policies {
		row := MixedRow{Policy: pol, PerGran: map[float64]stats.Interval{}}
		perGran := map[float64]*stats.Accumulator{}
		var overall stats.Accumulator
		for rep := 0; rep < o.MinReps; rep++ {
			cfg := o.CellConfig(f, o.Granularities[0], pol, rep)
			cfg.Workload.Granularities = o.Granularities
			res, err := runner.Run(cfg)
			if err != nil {
				return nil, err
			}
			if res.Saturated {
				row.SaturatedReps++
			}
			row.Reps++
			var mean stats.Accumulator
			for _, b := range res.Bags {
				if perGran[b.Granularity] == nil {
					perGran[b.Granularity] = &stats.Accumulator{}
				}
				perGran[b.Granularity].Add(b.Turnaround)
				mean.Add(b.Turnaround)
			}
			if mean.N() > 0 {
				overall.Add(mean.Mean())
			}
		}
		//botlint:sorted -- fills a map keyed by granularity; order is immaterial
		for g, a := range perGran {
			row.PerGran[g] = a.CI(o.Confidence)
		}
		row.Overall = overall.CI(o.Confidence)
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationArchitecture is experiment A11: the centralized scheduler the
// paper argues for against distributed multi-site variants (cf. Beaumont
// et al., the paper's related work [4]). All variants share WQR-FT,
// checkpointing and the availability model; only the scheduling
// architecture differs. Run on Hom-HighAvail at U=0.50 with the 25000 s
// granularity, where bags (100 tasks) match the whole grid's machine count
// and partitioning hurts most.
func oracleAblationArchitecture(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	f, err := FigureByID("F1a")
	if err != nil {
		return nil, err
	}
	const gran = 25000.0
	ar := &AblationResult{
		Name:    "A11",
		Caption: "centralized vs distributed sites (Hom-HighAvail, U=0.50, gran=25000)",
	}

	type variant struct {
		label    string
		sites    int
		dispatch multisite.Dispatch
	}
	variants := []variant{
		{"centralized (paper)", 0, 0},
		{"2 sites, rr-site", 2, multisite.RoundRobinSite},
		{"5 sites, rr-site", 5, multisite.RoundRobinSite},
		{"5 sites, least-loaded", 5, multisite.LeastLoadedSite},
	}
	for _, v := range variants {
		var acc, overhead stats.Accumulator
		row := AblationRow{Label: v.label}
		for rep := 0; rep < o.MinReps; rep++ {
			base := o.CellConfig(f, gran, core.FCFSShare, rep)
			if v.sites == 0 {
				res, err := core.Run(base)
				if err != nil {
					return nil, err
				}
				if res.Saturated {
					row.SaturatedReps++
				}
				if len(res.Bags) > 0 {
					acc.Add(res.MeanTurnaround())
				}
				if res.TasksCompleted > 0 {
					overhead.Add(float64(res.ReplicasStarted) / float64(res.TasksCompleted))
				}
			} else {
				res, err := multisite.Run(multisite.Config{
					Seed:       base.Seed,
					Grid:       base.Grid,
					Sites:      v.sites,
					Dispatch:   v.dispatch,
					Policy:     base.Policy,
					Sched:      base.Sched,
					Checkpoint: base.Checkpoint,
					Workload:   base.Workload,
					NumBoTs:    base.NumBoTs,
					Warmup:     base.Warmup,
				})
				if err != nil {
					return nil, err
				}
				if res.Saturated {
					row.SaturatedReps++
				}
				if len(res.Bags) > 0 {
					acc.Add(res.MeanTurnaround())
				}
			}
			row.Reps++
		}
		row.CI = acc.CI(o.Confidence)
		row.ReplicaOverhead = overhead.Mean()
		ar.Rows = append(ar.Rows, row)
	}
	if len(ar.Rows) == 0 {
		return nil, fmt.Errorf("experiment: architecture study produced no rows")
	}
	return ar, nil
}

// intervalBits renders an interval with its exact float bits, so NaN and
// ±Inf compare like any other value.
func intervalBits(ci stats.Interval) string {
	return fmt.Sprintf("%x/%x/%x/%d", math.Float64bits(ci.Mean), math.Float64bits(ci.HalfWidth),
		math.Float64bits(ci.Level), ci.N)
}

func ablationBits(ar *AblationResult) []string {
	out := []string{ar.Name, ar.Caption}
	for _, r := range ar.Rows {
		out = append(out, fmt.Sprintf("%s %s %x %d/%d", r.Label, intervalBits(r.CI),
			math.Float64bits(r.ReplicaOverhead), r.SaturatedReps, r.Reps))
	}
	return out
}

func mixedBits(rows []MixedRow) []string {
	var out []string
	for _, r := range rows {
		line := fmt.Sprintf("%s overall=%s %d/%d", r.Policy, intervalBits(r.Overall), r.SaturatedReps, r.Reps)
		grans := make([]float64, 0, len(r.PerGran))
		//botlint:sorted -- keys are collected then explicitly sorted below
		for g := range r.PerGran {
			grans = append(grans, g)
		}
		sort.Float64s(grans)
		for _, g := range grans {
			line += fmt.Sprintf(" %g=%s", g, intervalBits(r.PerGran[g]))
		}
		out = append(out, line)
	}
	return out
}

func sameLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, oracle %d\n got  %q\n want %q", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s line %d diverged from the sequential oracle:\n got  %s\n want %s", what, i, got[i], want[i])
		}
	}
}

// TestAblationsMatchSequentialOracle runs every ablation study through the
// sweep pool at parallelism 1 and 4 and compares each row with the
// original sequential loop: CI and replica overhead to the bit, saturated
// and replication counts exactly, and A3's per-class and overall intervals.
func TestAblationsMatchSequentialOracle(t *testing.T) {
	o := QuickOptions(21)
	studies := []struct {
		s   study
		run func(Options) (*AblationResult, error)
	}{
		{thresholdStudy, AblationThreshold},
		{dynamicReplicationStudy, AblationDynamicReplication},
		{checkpointingStudy, AblationCheckpointing},
		{machineSelectionStudy, AblationMachineSelection},
		{taskOrderStudy, AblationTaskOrder},
		{serverCapacityStudy, AblationServerCapacity},
		{taskDistributionStudy, AblationTaskDistribution},
		{diurnalStudy, AblationDiurnal},
		{suspendStudy, AblationSuspend},
	}
	type oracle struct {
		name string
		run  func(Options) (*AblationResult, error)
		want func(Options) (*AblationResult, error)
	}
	var oracles []oracle
	for _, st := range studies {
		s := st.s
		oracles = append(oracles, oracle{s.name, st.run, func(o Options) (*AblationResult, error) {
			f, err := FigureByID(s.fig)
			if err != nil {
				return nil, err
			}
			return oracleAblate(s.name, s.caption, f, o, s.gran, s.pol, s.variants)
		}})
	}
	oracles = append(oracles, oracle{"A11", AblationArchitecture, oracleAblationArchitecture})

	for _, or := range oracles {
		want, err := or.want(o)
		if err != nil {
			t.Fatalf("%s oracle: %v", or.name, err)
		}
		for _, par := range []int{1, 4} {
			o.Parallelism = par
			got, err := or.run(o)
			if err != nil {
				t.Fatalf("%s at parallel=%d: %v", or.name, par, err)
			}
			sameLines(t, fmt.Sprintf("%s parallel=%d", or.name, par), ablationBits(got), ablationBits(want))
		}
	}

	want, err := oracleMixedWorkloadStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		o.Parallelism = par
		got, err := MixedWorkloadStudy(o)
		if err != nil {
			t.Fatal(err)
		}
		sameLines(t, fmt.Sprintf("A3 parallel=%d", par), mixedBits(got), mixedBits(want))
	}
}
