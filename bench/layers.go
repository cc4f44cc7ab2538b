package main

import (
	"context"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/des"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
	bots "botgrid/internal/workload"
)

// Stand-alone layer probes of a traced run: each drives one layer through
// its public functions on bench-owned inputs shaped like the workload's,
// so the layer's cost can be read without the layers around it.

// simProbes measures the simulator's layers for one replication recipe and
// adds their metrics to m. liveBags × liveTasks is the scheduler state the
// live-cycle probe builds.
func simProbes(ctx context.Context, e *env, m map[string]float64, cfg core.RunConfig, liveBags, liveTasks int) error {
	// The whole replication, undecorated, for the time the layers below
	// have to add up to.
	var runner core.Runner
	start := time.Now()
	res, err := runner.Run(cfg)
	run := time.Since(start)
	if err != nil {
		return err
	}
	events := float64(res.EventsFired)

	// grid: build the machine population, then run its availability
	// process alone — no scheduler listening — to where the replication
	// ended.
	start = time.Now()
	g := grid.Build(cfg.Grid, rng.Root(cfg.Seed, "grid-build"))
	m["grid.build_s"] = time.Since(start).Seconds()
	eng := des.New()
	g.Start(eng, rng.Root(cfg.Seed, "availability"), nil)
	depth := float64(eng.Len())
	start = time.Now()
	eng.RunUntil(res.SimEnd)
	avail := time.Since(start)
	transitions := float64(eng.Fired())
	m["grid.transitions"] = transitions
	failures := 0
	for _, mach := range g.Machines {
		failures += mach.Failures()
	}
	m["grid.machine_failures"] = float64(failures)
	m["grid.avail_ns_per_event"] = float64(avail.Nanoseconds()) / max(transitions, 1)
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}

	// workload: draw the replication's bags.
	gen := bots.NewGenerator(cfg.Workload, rng.Root(cfg.Seed, "tasks"), rng.Root(cfg.Seed, "arrivals"))
	start = time.Now()
	tasks := 0
	for _, b := range gen.Take(cfg.NumBoTs) {
		tasks += b.NumTasks()
	}
	genTook := time.Since(start)
	m["workload.gen_ns_per_task"] = float64(genTook.Nanoseconds()) / float64(tasks)

	// des: the hold model at the replication's queue depth — one pending
	// transition per machine plus one completion per busy machine — and
	// its delay mix.
	busy := min(float64(len(g.Machines)), float64(res.ReplicasStarted))
	hold, meanDepth := desHold(int(depth+busy), cfg, e.sz.smoke())
	m["des.hold_ns_per_event"] = hold
	m["des.queue_depth_mean"] = meanDepth

	// core: what is left of the replication once the grid's and the
	// workload's shares are taken out, and the live scheduler's cycle.
	m["core.self_ns_per_event"] = float64((run - avail - genTook).Nanoseconds()) / events
	cycles := liveCycles(liveBags, liveTasks, e.sz.smoke())
	for pol, c := range cycles {
		m["core.live_cycle_ns."+pol] = c.perCycle
	}
	// What the stand-alone probes explain of the replication: the grid's
	// transitions, the workload draw, the queue's share of every other
	// event, and one dispatch decision per replica started. The rest —
	// checkpoint transfers, the simulation executor, statistics — has no
	// probe of its own. Probes run on their own inputs, so the share can
	// come out negative where a layer is cheaper in place than alone.
	attributed := avail.Seconds() + genTook.Seconds() +
		hold*1e-9*(events-transitions) +
		cycles[cfg.Policy.String()].perReplica*1e-9*float64(res.ReplicasStarted)
	m["sim.unattributed_share"] = 1 - attributed/run.Seconds()
	return nil
}

// desHold runs the classic hold model on a bench-owned engine: depth events
// pending, each Step pops the earliest and its handler schedules a
// successor one delay later. Delays cycle through a pre-drawn table mixing
// the recipe's machine up-times (Weibull), repair times (truncated normal)
// and task run times (uniform), so the loop measures the queue and nothing
// else. It returns ns per hold and the mean queue depth seen.
func desHold(depth int, cfg core.RunConfig, smoke bool) (nsPerHold, meanDepth float64) {
	holds := 2_000_000
	if smoke {
		holds = 20_000
	}
	str := rng.Root(cfg.Seed, "bench-des-hold")
	gc := cfg.Grid
	scale := rng.WeibullScaleForMean(gc.WeibullShape, min(gc.MTBF(), 1e9))
	gran := cfg.Workload.Granularities[0]
	delays := make([]float64, 1<<16)
	for i := range delays {
		switch i % 3 {
		case 0:
			delays[i] = str.Weibull(gc.WeibullShape, scale)
		case 1:
			delays[i] = str.TruncNormal(gc.RepairMean, gc.RepairSD, gc.RepairLo, gc.RepairHi)
		default:
			delays[i] = str.Uniform(0.5, 1.5) * gran / gc.HomPower
		}
	}
	eng := des.New()
	next := 0
	var hold func(*des.Engine, any)
	hold = func(e *des.Engine, _ any) {
		e.ScheduleFuncAt(e.Now()+delays[next&(len(delays)-1)], hold, nil)
		next++
	}
	for i := 0; i < depth; i++ {
		hold(eng, nil)
	}
	// Let the queue reach its steady shape before timing.
	for i := 0; i < depth; i++ {
		eng.Step()
	}
	sum := 0.0
	start := time.Now()
	for i := 0; i < holds; i++ {
		eng.Step()
		if i&1023 == 0 {
			sum += float64(eng.Len())
		}
	}
	took := time.Since(start)
	return float64(took.Nanoseconds()) / float64(holds), sum / float64((holds+1023)/1024)
}

// manualClock is a hand-advanced core.Clock.
type manualClock struct{ t float64 }

func (c *manualClock) Now() float64 { return c.t }

// liveCycles times the live scheduler's dispatch cycle for each policy the
// paper and the service use: with `bags` bags of `tasks` tasks queued and
// every worker slot busy, complete the replica on a slot — which frees it
// and immediately dispatches the next — and top the queue back up. It
// returns, by policy name, ns per cycle and ns per replica started (a
// completion that kills siblings frees several slots at once).
func liveCycles(bags, tasks int, smoke bool) map[string]cycleCost {
	const slots = 128
	cycles := 200_000
	if smoke {
		cycles = 5_000
	}
	works := make([]float64, tasks)
	for i := range works {
		works[i] = 100
	}
	out := map[string]cycleCost{}
	for _, kind := range append(append([]core.PolicyKind(nil), core.PaperKinds...), core.FairShare) {
		powers := make([]float64, slots)
		for i := range powers {
			powers[i] = 10
		}
		g := grid.NewCustom(grid.DefaultConfig(grid.Hom, grid.AlwaysUp), powers)
		for _, mach := range g.Machines {
			mach.ForceFail(0)
		}
		clock := &manualClock{}
		s := core.NewLiveScheduler(clock, g, core.NewPolicy(kind, nil), core.DefaultSchedConfig(), nil)
		for i := 0; i < bags; i++ {
			s.Submit(1000, works)
		}
		for _, mach := range g.Machines {
			mach.ForceRepair(0)
			s.MachineRepaired(mach)
		}
		done, started := 0, s.ReplicasStarted()
		start := time.Now()
		for i := 0; i < cycles; i++ {
			clock.t++
			if r := s.ReplicaOn(g.Machines[i%slots]); r != nil {
				s.CompleteReplica(r)
				done++
			}
			if s.Submitted()-s.Completed() < bags {
				s.Submit(1000, works)
			}
		}
		took := float64(time.Since(start).Nanoseconds())
		out[kind.String()] = cycleCost{took / float64(max(done, 1)), took / float64(max(s.ReplicasStarted()-started, 1))}
	}
	return out
}

type cycleCost struct{ perCycle, perReplica float64 }
