package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"time"

	"botgrid/internal/checkpoint"
	"botgrid/internal/core"
	"botgrid/internal/experiment"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
	bots "botgrid/internal/workload"
)

// The three simulator workloads. sim-churn and sim-backlog run lists of
// core.RunConfig on one warm core.Runner from a single goroutine (repSim);
// sim-figures goes through experiment.RunSweep (figSim).

// repSim runs a segment's replications back to back on one warm Runner.
type repSim struct {
	e      *env
	name   string
	traced bool
	runner core.Runner
	// units lists segment k's replications; the same (seed, k) always
	// yields the same list.
	units func(k int) []core.RunConfig
	// saturationOK marks a workload whose recipe overloads the grid on
	// purpose, so a replication that hits its horizon is not a failure.
	saturationOK bool
	// opIsReplication makes a replication the op; otherwise it is a
	// simulated event.
	opIsReplication bool
	// probe is the index, in segment 0's units, of the replication the
	// stand-alone layer probes take their recipe from. liveBags × liveTasks
	// is the scheduler state the live-cycle probe rebuilds: the workload's
	// concurrent bag count and bag size.
	probe, liveBags, liveTasks int

	tally simTally // traced pass only
}

func (s *repSim) segment(ctx context.Context, k int) (segResult, error) {
	var seg segResult
	h := sha256.New()
	began := time.Now()
	for i, cfg := range s.units(k) {
		if ctx.Err() != nil {
			return seg, context.Cause(ctx)
		}
		var before repMem
		observed := s.traced && k != warmUp
		if observed {
			cfg.Observer = &s.tally
			before = readRepMem()
		}
		start := time.Now()
		res, err := s.runner.Run(cfg)
		took := time.Since(start)
		seg.attempted++
		if err != nil || (res.Saturated && !s.saturationOK) {
			fmt.Fprintf(s.e.stderr, "bench: %s segment %d replication %d: saturated=%t err=%v\n",
				s.name, k, i, res.Saturated, err)
			seg.failed++
			continue
		}
		seg.wall += took
		seg.callsMs = append(seg.callsMs, took.Seconds()*1e3)
		seg.allocPer++
		if seg.ops += float64(res.EventsFired); s.opIsReplication {
			seg.ops = seg.allocPer
		}
		hashResult(h, res)
		if observed {
			s.tally.add(res, took, before)
			s.e.tr.span("core.run", s.e.tr.id(layerSim, k+1, uint64(i+1)), s.e.tr.id(layerSim, k+1, 0), start, start.Add(took))
		}
	}
	if s.traced && k != warmUp {
		s.e.tr.span("sim.segment", s.e.tr.id(layerSim, k+1, 0), 0, began, time.Now())
	}
	seg.digest = fmt.Sprintf("%x", h.Sum(nil))
	return seg, nil
}

func (s *repSim) finish(context.Context) ([]check, error) {
	if !s.traced {
		return nil, nil
	}
	return []check{s.tally.agrees()}, nil
}

func (s *repSim) close() error { return nil }

func (s *repSim) layers(ctx context.Context, _ []segResult) (map[string]float64, error) {
	m := s.tally.metrics()
	if err := simProbes(ctx, s.e, m, s.units(0)[s.probe], s.liveBags, s.liveTasks); err != nil {
		return nil, err
	}
	return m, nil
}

// benchSeed derives a named 64-bit seed from the run's seed.
func benchSeed(base uint64, format string, args ...any) uint64 {
	return rng.Root(base, fmt.Sprintf(format, args...)).Uint64()
}

// checkpointDefaults is the checkpoint configuration every run uses; the
// recipes need it to turn a utilization into an arrival rate.
var checkpointDefaults = checkpoint.DefaultConfig()

// setupSimChurn is BenchmarkReplicationScale's Scale/100k-machines recipe:
// Hom/LowAvail, granularity 50 000, U = 0.3, FCFS-Share. AppSize grows
// with the machine count so the horizon stays fixed.
func setupSimChurn(_ context.Context, e *env, traced bool) (system, error) {
	gc := grid.DefaultConfig(grid.Hom, grid.LowAvail)
	gc.TotalPower = gc.HomPower * float64(e.sz.ChurnMachines)
	appSize := 2.5e3 * float64(e.sz.ChurnMachines)
	wc := bots.Config{
		Granularities: []float64{50000},
		AppSize:       appSize,
		Spread:        0.5,
		Lambda:        bots.LambdaForUtilization(0.3, appSize, core.EffectivePower(gc, checkpointDefaults)),
	}
	return &repSim{
		e: e, name: "sim-churn", traced: traced,
		liveBags: e.sz.ChurnBags, liveTasks: int(appSize / 50000),
		units: func(k int) []core.RunConfig {
			// Four times the default horizon: with only a handful of bags
			// an unlucky seed's last bag outlives 4·N/λ, and a replication
			// cut off as saturated is a failed operation here. A run that
			// finishes earlier is bit-identical under any horizon.
			bags, reps, horizon := e.sz.ChurnBags, e.sz.ChurnReps, 16.0
			if k == warmUp {
				// A quarter of the bags under the same absolute horizon.
				bags, reps = max(1, int(float64(bags)*warmShare)), 1
				horizon *= float64(e.sz.ChurnBags) / float64(bags)
			}
			var out []core.RunConfig
			for r := 0; r < reps; r++ {
				out = append(out, core.RunConfig{
					Seed:          benchSeed(e.seed, "sim-churn/%d/%d", k, r),
					Grid:          gc,
					Workload:      wc,
					Policy:        core.FCFSShare,
					NumBoTs:       bags,
					HorizonFactor: horizon,
				})
			}
			return out
		},
	}, nil
}

// setupSimBacklog is the Bags/10k-concurrent recipe: ten-task bags at four
// times what the default 100-machine Hom/HighAvail grid can serve, each of
// the paper's five policies on every seed of the segment.
func setupSimBacklog(_ context.Context, e *env, traced bool) (system, error) {
	gc := grid.DefaultConfig(grid.Hom, grid.HighAvail)
	wc := bots.Config{
		Granularities: []float64{1000},
		AppSize:       1e4,
		Spread:        0.5,
		// U = 4 is past LambdaForUtilization's stable domain; invert
		// Eq. 1 (U = λ·D) directly.
		Lambda: 4.0 / bots.Demand(1e4, core.EffectivePower(gc, checkpointDefaults)),
	}
	return &repSim{
		e: e, name: "sim-backlog", traced: traced, saturationOK: true,
		probe:    1, // FCFS-Share, as on the other two simulator workloads
		liveBags: e.sz.BacklogBags / 2, liveTasks: 10,
		units: func(k int) []core.RunConfig {
			bags, seeds := e.sz.BacklogBags, e.sz.BacklogSeeds
			if k == warmUp {
				bags, seeds = max(1, int(float64(bags)*warmShare)), 1
			}
			var out []core.RunConfig
			for s := 0; s < seeds; s++ {
				seed := benchSeed(e.seed, "sim-backlog/%d/%d", k, s)
				for _, pol := range core.PaperKinds {
					out = append(out, core.RunConfig{
						Seed: seed, Grid: gc, Workload: wc, Policy: pol, NumBoTs: bags,
					})
				}
			}
			return out
		},
	}, nil
}

// hashResult folds every counter and every bag statistic of a replication
// into h, bit for bit.
func hashResult(h hash.Hash, r core.Result) {
	buf := make([]byte, 0, 8*(14+11*len(r.Bags)))
	u := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	f := math.Float64bits
	saturated := uint64(0)
	if r.Saturated {
		saturated = 1
	}
	u(uint64(r.Submitted), uint64(r.Completed), saturated, f(r.SimEnd), r.EventsFired,
		uint64(r.ReplicaFailures), uint64(r.Suspensions), uint64(r.TasksCompleted),
		uint64(r.ReplicasStarted), uint64(r.ReplicasKilled),
		uint64(r.CheckpointSaves), uint64(r.CheckpointRetrieves), f(r.Lambda), uint64(len(r.Bags)))
	for _, b := range r.Bags {
		u(uint64(b.ID), f(b.Granularity), uint64(b.NumTasks), f(b.Arrival), f(b.FirstStart),
			f(b.Completed), f(b.Waiting), f(b.Makespan), f(b.Turnaround), f(b.IdealMakespan), f(b.Slowdown))
	}
	h.Write(buf)
}

// figSim is the paper's evaluation as a researcher runs it: the eight
// panels F1a–F2d × 4 granularities × 5 policies, two replications per cell,
// through experiment.RunSweep with one worker per core. RunSweep has no
// seam to decorate, so both passes of a traced run execute the very same
// units stand-alone instead, one after the other in cell order on one
// Runner — with an Observer attached on the traced pass.
type figSim struct {
	e          *env
	standalone *repSim // nil on an untraced run
}

func setupSimFigures(_ context.Context, e *env, traced bool) (system, error) {
	s := &figSim{e: e}
	if e.tr != nil {
		s.standalone = &repSim{e: e, name: "sim-figures", traced: traced,
			saturationOK: true, opIsReplication: true, units: s.units}
	}
	return s, nil
}

func (s *figSim) options(k int) experiment.Options {
	o := experiment.DefaultOptions(s.e.seed + uint64(k))
	bags := s.e.sz.FigBags
	if k == warmUp {
		o.Seed = benchSeed(s.e.seed, "sim-figures/warm-up")
		bags = max(5, int(float64(bags)*warmShare))
	}
	o.Scale = s.e.sz.FigScale
	o.NumBoTs = bags
	o.Warmup = bags / 5
	// Two, not one: a single replication leaves the confidence interval
	// NaN, which SaveResults cannot encode.
	o.MinReps, o.MaxReps = 2, 2
	o.Parallelism = s.e.nproc
	return o
}

var paperPanels = experiment.Figures[:8]

// units lists the replications of segment k's sweep.
func (s *figSim) units(k int) []core.RunConfig {
	o := s.options(k)
	var out []core.RunConfig
	for _, f := range paperPanels {
		for _, gran := range o.Granularities {
			for _, pol := range o.Policies {
				for rep := 0; rep < o.MaxReps; rep++ {
					out = append(out, o.CellConfig(f, gran, pol, rep))
				}
			}
		}
	}
	return out
}

func (s *figSim) segment(ctx context.Context, k int) (segResult, error) {
	if s.standalone != nil {
		return s.standalone.segment(ctx, k)
	}
	return sweep(paperPanels, s.options(k))
}

// sweep times one RunSweep call and hashes what SaveResults writes.
func sweep(figs []experiment.Figure, o experiment.Options) (segResult, error) {
	start := time.Now()
	results, err := experiment.RunSweep(figs, o)
	seg := segResult{wall: time.Since(start)}
	cells := len(figs) * len(o.Granularities) * len(o.Policies)
	seg.attempted = int64(cells * o.MaxReps)
	if err != nil {
		return seg, fmt.Errorf("RunSweep: %w", err)
	}
	for _, fr := range results {
		for _, row := range fr.Cells {
			for _, c := range row {
				seg.ops += float64(c.Reps)
			}
		}
	}
	seg.failed = seg.attempted - int64(seg.ops)
	seg.callsMs = []float64{seg.wall.Seconds() * 1e3}
	h := sha256.New()
	if err := experiment.SaveResults(h, results); err != nil {
		return seg, fmt.Errorf("SaveResults: %w", err)
	}
	seg.digest = fmt.Sprintf("%x", h.Sum(nil))
	return seg, nil
}

func (s *figSim) finish(ctx context.Context) ([]check, error) {
	if s.standalone == nil {
		return nil, nil
	}
	return s.standalone.finish(ctx)
}

func (s *figSim) close() error { return nil }

// layers adds the pool's own numbers: the sweep of segment 0 once with one
// worker and once with one per core. Both must save the same bytes.
func (s *figSim) layers(ctx context.Context, ref []segResult) (map[string]float64, error) {
	m := s.standalone.tally.metrics()
	o := s.options(0)
	parallel, err := sweep(paperPanels, o)
	if err != nil {
		return nil, err
	}
	o.Parallelism = 1
	serial, err := sweep(paperPanels, o)
	if err != nil {
		return nil, err
	}
	if serial.digest != parallel.digest {
		return nil, fmt.Errorf("sim-figures: sweep digest differs between 1 and %d workers", s.e.nproc)
	}
	// ref[0] is the same units run stand-alone with no pool around them.
	m["experiment.pool_overhead_share"] = 1 - ref[0].wall.Seconds()/serial.wall.Seconds()
	m["experiment.parallel_efficiency"] = serial.wall.Seconds() / (float64(s.e.nproc) * parallel.wall.Seconds())

	// The probes take the sweep's slowest cell — LowAvail, high intensity,
	// granularity 1000 — which sets the tail of the sweep.
	f2c, err := experiment.FigureByID("F2c")
	if err != nil {
		return nil, err
	}
	probe := o.CellConfig(f2c, 1000, core.FCFSShare, 0)
	return m, simProbes(ctx, s.e, m, probe, max(2, int(f2c.Util*10)), int(o.AppSize()/1000))
}
