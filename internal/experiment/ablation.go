package experiment

import (
	"fmt"
	"io"
	"math"

	"botgrid/internal/core"
	"botgrid/internal/grid"
	"botgrid/internal/stats"
	"botgrid/internal/workload"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Label string
	CI    stats.Interval
	// ReplicaOverhead is replicas started per task completed.
	ReplicaOverhead float64
	SaturatedReps   int
	Reps            int
}

// AblationResult is a one-dimensional sweep over a design knob.
type AblationResult struct {
	Name    string
	Caption string
	Rows    []AblationRow
}

// WriteTable renders the ablation result.
func (ar *AblationResult) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", ar.Name, ar.Caption); err != nil {
		return err
	}
	out := [][]string{{"config", "mean turnaround", "replicas/task", "saturated"}}
	for _, r := range ar.Rows {
		// NaN means no replication measured anything for the column.
		mean, overhead := "-", "-"
		if !math.IsNaN(r.CI.Mean) {
			mean = fmt.Sprintf("%.0f ± %.0f", r.CI.Mean, r.CI.HalfWidth)
		}
		if !math.IsNaN(r.ReplicaOverhead) {
			overhead = fmt.Sprintf("%.2f", r.ReplicaOverhead)
		}
		out = append(out, []string{
			r.Label,
			mean,
			overhead,
			fmt.Sprintf("%d/%d", r.SaturatedReps, r.Reps),
		})
	}
	return writeAligned(w, out)
}

// variant is one row of a single-knob ablation: its label and the change
// it makes to the study point's configuration.
type variant struct {
	label string
	mut   func(*core.RunConfig)
}

// study is a single-knob ablation over one (figure, granularity, policy)
// point. Every variant replays the point's per-replication seeds, so rows
// differ only by the variant's change.
type study struct {
	name, caption string
	fig           string
	gran          float64
	pol           core.PolicyKind
	variants      []variant
}

// run reproduces the study: one fixed-count cell per variant, all through
// one sweep pool.
func (s study) run(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	f, err := FigureByID(s.fig)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(s.variants))
	for i, v := range s.variants {
		labels[i] = v.label
	}
	return tabulate(s.name, s.caption, o, labels, func(v int, r *core.Runner, rep int) (core.Result, error) {
		cfg := o.CellConfig(f, s.gran, s.pol, rep)
		s.variants[v].mut(&cfg)
		return r.Run(cfg)
	})
}

// fixedCell is a sweep cell that runs exactly o.MinReps replications, the
// ablation studies' replication rule.
func fixedCell(o Options, label string, run func(*core.Runner, int) (core.Result, error)) *cellState {
	return &cellState{
		label:      label,
		run:        run,
		out:        new(Cell),
		minReps:    o.MinReps,
		maxReps:    o.MinReps,
		relErr:     o.RelErr,
		confidence: o.Confidence,
	}
}

// tabulate runs one fixed-count cell per label through the sweep pool and
// turns each published cell into a row; run(v, r, rep) simulates
// replication rep of the v-th variant on the worker's Runner r.
func tabulate(name, caption string, o Options, labels []string,
	run func(v int, r *core.Runner, rep int) (core.Result, error)) (*AblationResult, error) {
	cells := make([]*cellState, len(labels))
	for v, label := range labels {
		cells[v] = fixedCell(o, name+" "+label, func(r *core.Runner, rep int) (core.Result, error) {
			return run(v, r, rep)
		})
	}
	if err := runCells(cells, o.Parallelism); err != nil {
		return nil, err
	}
	ar := &AblationResult{Name: name, Caption: caption}
	for v, c := range cells {
		ar.Rows = append(ar.Rows, AblationRow{
			Label:           labels[v],
			CI:              c.out.CI,
			ReplicaOverhead: c.out.ReplicaOverhead,
			SaturatedReps:   c.out.SaturatedReps,
			Reps:            c.out.Reps,
		})
	}
	return ar, nil
}

var thresholdStudy = study{
	"A1", "WQR-FT replication threshold sweep (Het-LowAvail, U=0.50, gran=25000)",
	"F2b", 25000, core.FCFSShare, []variant{
		{"threshold=1", func(c *core.RunConfig) { c.Sched.Threshold = 1 }},
		{"threshold=2", func(c *core.RunConfig) { c.Sched.Threshold = 2 }},
		{"threshold=3", func(c *core.RunConfig) { c.Sched.Threshold = 3 }},
		{"threshold=4", func(c *core.RunConfig) { c.Sched.Threshold = 4 }},
	},
}

// AblationThreshold is experiment A1: the §3.2 claim that replication
// thresholds above 2 bring negligible benefit at much higher overhead.
// It sweeps the WQR-FT threshold on Het-LowAvail at low intensity for the
// 25000 s granularity (where replication matters most).
func AblationThreshold(o Options) (*AblationResult, error) { return thresholdStudy.run(o) }

var dynamicReplicationStudy = study{
	"A2", "static vs dynamic replication (Het-LowAvail, U=0.50, gran=25000)",
	"F2b", 25000, core.RR, []variant{
		{"static (paper)", func(c *core.RunConfig) { c.Sched.DynamicReplication = false }},
		{"dynamic", func(c *core.RunConfig) { c.Sched.DynamicReplication = true }},
	},
}

// AblationDynamicReplication is experiment A2: the future-work dynamic
// replication variant against static WQR-FT, on Het-LowAvail.
func AblationDynamicReplication(o Options) (*AblationResult, error) {
	return dynamicReplicationStudy.run(o)
}

var checkpointingStudy = study{
	"A4", "checkpointing on vs off (Hom-LowAvail, U=0.50, gran=125000)",
	"F2a", 125000, core.RR, []variant{
		{"WQR-FT (checkpointing)", func(c *core.RunConfig) {}},
		{"WQR (no checkpoints)", func(c *core.RunConfig) { c.Checkpoint.Enabled = false }},
	},
}

// AblationCheckpointing compares WQR-FT against plain WQR (no
// checkpoint/restart) under low availability, quantifying what the
// fault-tolerance layer buys.
func AblationCheckpointing(o Options) (*AblationResult, error) { return checkpointingStudy.run(o) }

var machineSelectionStudy = study{
	"A5", "machine selection: arbitrary vs fastest-first (Het-HighAvail, U=0.50, gran=25000)",
	"F1b", 25000, core.FCFSShare, []variant{
		{"arbitrary (knowledge-free)", func(c *core.RunConfig) {}},
		{"fastest-first (knowledge-based)", func(c *core.RunConfig) { c.Sched.FastestMachineFirst = true }},
	},
}

// AblationMachineSelection compares knowledge-free arbitrary machine
// selection against the knowledge-based fastest-machine-first variant on
// the heterogeneous grid.
func AblationMachineSelection(o Options) (*AblationResult, error) {
	return machineSelectionStudy.run(o)
}

var serverCapacityStudy = study{
	"A7", "checkpoint server capacity (Hom-LowAvail, U=0.50, gran=125000)",
	"F2a", 125000, core.RR, []variant{
		{"capacity=∞ (paper)", func(c *core.RunConfig) { c.Checkpoint.Capacity = 0 }},
		{"capacity=16", func(c *core.RunConfig) { c.Checkpoint.Capacity = 16 }},
		{"capacity=4", func(c *core.RunConfig) { c.Checkpoint.Capacity = 4 }},
		{"capacity=1", func(c *core.RunConfig) { c.Checkpoint.Capacity = 1 }},
	},
}

// AblationServerCapacity is experiment A7: relaxing the paper's assumption
// of contention-free checkpoint servers. It sweeps the server's concurrent
// transfer capacity on Hom-LowAvail at the largest granularity, where
// checkpoint traffic is heaviest.
func AblationServerCapacity(o Options) (*AblationResult, error) { return serverCapacityStudy.run(o) }

var taskOrderStudy = study{
	"A6", "within-bag task order (Het-HighAvail, U=0.50, gran=25000)",
	"F1b", 25000, core.FCFSShare, []variant{
		{"arbitrary (WQR, knowledge-free)", func(c *core.RunConfig) { c.Sched.TaskOrder = core.ArbitraryOrder }},
		{"longest-first (LPT, KB)", func(c *core.RunConfig) { c.Sched.TaskOrder = core.LongestFirst }},
		{"shortest-first (SPT, KB)", func(c *core.RunConfig) { c.Sched.TaskOrder = core.ShortestFirst }},
	},
}

// AblationTaskOrder is experiment A6: coupling the knowledge-free bag
// selection with knowledge-based within-bag dispatch orders (the paper's
// second future-work direction). LPT (longest-first) is the classic
// makespan heuristic for parallel machines.
func AblationTaskOrder(o Options) (*AblationResult, error) { return taskOrderStudy.run(o) }

var taskDistributionStudy = study{
	"A8", "task-duration distribution (Het-HighAvail, U=0.50, gran=5000)",
	"F1b", 5000, core.FCFSShare, []variant{
		{"uniform ±50% (paper)", func(c *core.RunConfig) { c.Workload.Dist = workload.UniformDist }},
		{"weibull shape 0.8", func(c *core.RunConfig) {
			c.Workload.Dist = workload.WeibullDist
			c.Workload.DistShape = 0.8
		}},
		{"lognormal sigma 1.0", func(c *core.RunConfig) {
			c.Workload.Dist = workload.LognormalDist
			c.Workload.DistShape = 1.0
		}},
	},
}

// AblationTaskDistribution is experiment A8: sensitivity of the results to
// the paper's uniform task-duration assumption. Heavy-tailed durations
// (Weibull shape < 1, lognormal) are what real BoT traces show; WQR's
// replication is expected to matter more when stragglers are longer.
func AblationTaskDistribution(o Options) (*AblationResult, error) {
	return taskDistributionStudy.run(o)
}

var diurnalStudy = study{
	"A9", "stationary vs diurnal availability (Het-LowAvail, U=0.50, gran=25000)",
	"F2b", 25000, core.RR, []variant{
		{"stationary (paper)", func(c *core.RunConfig) {}},
		{"diurnal ×4", func(c *core.RunConfig) {
			c.Grid.DiurnalPeriod = 86400
			c.Grid.DiurnalPeakFactor = 4
		}},
	},
}

// AblationDiurnal is experiment A9: stationary failures (the paper's
// model) against diurnal workday churn with the same long-run MTBF.
func AblationDiurnal(o Options) (*AblationResult, error) { return diurnalStudy.run(o) }

var suspendStudy = study{
	"A10", "failure semantics: kill vs suspend (Hom-LowAvail, U=0.50, gran=25000)",
	"F2a", 25000, core.RR, []variant{
		{"kill + resubmit (paper)", func(c *core.RunConfig) {}},
		{"suspend + resume (BOINC)", func(c *core.RunConfig) { c.Sched.SuspendOnFailure = true }},
	},
}

// AblationSuspend is experiment A10: the paper's kill-and-resubmit failure
// semantics against BOINC-style suspend-and-resume, where a departed
// machine's replica keeps local progress and continues on return.
func AblationSuspend(o Options) (*AblationResult, error) { return suspendStudy.run(o) }

// MixedWorkloadStudy is experiment A3 (the paper's first future-work
// direction): all four BoT types submitted simultaneously. It compares the
// policies' mean turnaround per class on Het-HighAvail at medium intensity.
type MixedRow struct {
	Policy core.PolicyKind
	// PerGran maps granularity to the mean turnaround of its bags.
	PerGran map[float64]stats.Interval
	Overall stats.Interval
	// Saturated marks runs that hit the horizon.
	SaturatedReps, Reps int
}

// mixedTally folds one policy's replications per bag class and overall.
type mixedTally struct {
	perGran map[float64]*stats.Accumulator
	overall stats.Accumulator
}

func (t *mixedTally) add(res core.Result) {
	var mean stats.Accumulator
	for _, b := range res.Bags {
		if t.perGran[b.Granularity] == nil {
			t.perGran[b.Granularity] = &stats.Accumulator{}
		}
		t.perGran[b.Granularity].Add(b.Turnaround)
		mean.Add(b.Turnaround)
	}
	if mean.N() > 0 {
		t.overall.Add(mean.Mean())
	}
}

// MixedWorkloadStudy runs the mixed-granularity workload for each policy.
func MixedWorkloadStudy(o Options) ([]MixedRow, error) {
	o = o.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	f := Figure{ID: "A3", Caption: "mixed granularities", Het: grid.Het, Avail: grid.MedAvail, Util: 0.75}
	tallies := make([]mixedTally, len(o.Policies))
	cells := make([]*cellState, len(o.Policies))
	for i, pol := range o.Policies {
		tallies[i].perGran = map[float64]*stats.Accumulator{}
		cells[i] = fixedCell(o, "A3 "+pol.String(), func(r *core.Runner, rep int) (core.Result, error) {
			cfg := o.CellConfig(f, o.Granularities[0], pol, rep)
			cfg.Workload.Granularities = o.Granularities
			return r.Run(cfg)
		})
		cells[i].observe = tallies[i].add
	}
	if err := runCells(cells, o.Parallelism); err != nil {
		return nil, err
	}
	rows := make([]MixedRow, len(cells))
	for i, c := range cells {
		rows[i] = MixedRow{
			Policy:        o.Policies[i],
			PerGran:       map[float64]stats.Interval{},
			Overall:       tallies[i].overall.CI(o.Confidence),
			SaturatedReps: c.out.SaturatedReps,
			Reps:          c.out.Reps,
		}
		//botlint:sorted -- fills a map keyed by granularity; order is immaterial
		for g, a := range tallies[i].perGran {
			rows[i].PerGran[g] = a.CI(o.Confidence)
		}
	}
	return rows, nil
}

// WriteMixedTable renders the mixed-workload study.
func WriteMixedTable(w io.Writer, o Options, rows []MixedRow) error {
	o = o.withDefaults()
	if _, err := fmt.Fprintln(w, "A3 — mixed-granularity workload (Het-MedAvail, U=0.75)"); err != nil {
		return err
	}
	header := []string{"policy", "overall"}
	for _, g := range o.Granularities {
		header = append(header, fmt.Sprintf("gran=%.0f", g))
	}
	out := [][]string{header}
	for _, r := range rows {
		line := []string{r.Policy.String(), fmt.Sprintf("%.0f", r.Overall.Mean)}
		for _, g := range o.Granularities {
			if ci, ok := r.PerGran[g]; ok {
				line = append(line, fmt.Sprintf("%.0f", ci.Mean))
			} else {
				line = append(line, "-")
			}
		}
		out = append(out, line)
	}
	return writeAligned(w, out)
}
