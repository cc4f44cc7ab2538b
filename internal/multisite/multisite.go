// Package multisite implements a distributed-scheduler baseline: the grid
// is partitioned into independent sites, each running its own centralized
// two-step scheduler, and a lightweight dispatcher routes every arriving
// bag to exactly one site.
//
// The paper argues for a single centralized scheduler and cites Beaumont
// et al. (IPDPS 2006) as the only multiple-BoT work considering the
// centralized/distributed axis. This package makes that comparison
// runnable: dispatchers are knowledge-free (round-robin, random) or
// lightly informed (least-loaded by queued work), and every other
// mechanism (WQR-FT, checkpointing, availability) is shared with the
// centralized implementation, so measured differences isolate the
// scheduling architecture.
package multisite

import (
	"fmt"
	"math"

	"botgrid/internal/checkpoint"
	"botgrid/internal/core"
	"botgrid/internal/des"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
	"botgrid/internal/workload"
)

// Dispatch selects how arriving bags are routed to sites.
type Dispatch int

const (
	// RoundRobinSite routes bags to sites in circular order.
	RoundRobinSite Dispatch = iota
	// RandomSite routes each bag to a uniformly random site.
	RandomSite
	// LeastLoadedSite routes to the site with the least outstanding
	// work (pending + running bags' remaining work) — a lightly
	// knowledge-based dispatcher.
	LeastLoadedSite
)

// String names the dispatcher.
func (d Dispatch) String() string {
	switch d {
	case RoundRobinSite:
		return "rr-site"
	case RandomSite:
		return "random-site"
	case LeastLoadedSite:
		return "least-loaded"
	default:
		return fmt.Sprintf("Dispatch(%d)", int(d))
	}
}

// Config describes a distributed run. It mirrors core.RunConfig with the
// partitioning knobs added.
type Config struct {
	// Seed drives every random stream.
	Seed uint64
	// Grid is the overall Desktop Grid; its machines are partitioned
	// round-robin into Sites sites (preserving the power mix).
	Grid grid.Config
	// Sites is the number of independent sites (>= 1).
	Sites int
	// Dispatch selects the bag-routing policy.
	Dispatch Dispatch
	// Policy is each site's bag-selection policy.
	Policy core.PolicyKind
	// Sched tunes each site's WQR-FT scheduler.
	Sched core.SchedConfig
	// Checkpoint configures each site's checkpoint server.
	Checkpoint checkpoint.Config
	// Workload is the arrival stream (shared across all sites).
	Workload workload.Config
	// NumBoTs and Warmup follow core.RunConfig.
	NumBoTs, Warmup int
	// HorizonFactor follows core.RunConfig (0 → 4).
	HorizonFactor float64
}

// Result aggregates a distributed run; per-bag stats use the same
// definitions as the centralized core.
type Result struct {
	Bags                 []core.BagStats
	Submitted, Completed int
	Saturated            bool
	SimEnd               float64
	// PerSite counts completed bags per site, exposing dispatcher skew.
	PerSite []int
}

// MeanTurnaround mirrors core.Result.
func (r Result) MeanTurnaround() float64 {
	if len(r.Bags) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, b := range r.Bags {
		sum += b.Turnaround
	}
	return sum / float64(len(r.Bags))
}

// Run executes a distributed simulation.
func Run(cfg Config) (Result, error) {
	if cfg.Sites < 1 {
		return Result{}, fmt.Errorf("multisite: Sites %d must be >= 1", cfg.Sites)
	}
	if err := cfg.Workload.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.NumBoTs <= 0 {
		return Result{}, fmt.Errorf("multisite: NumBoTs %d must be positive", cfg.NumBoTs)
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.NumBoTs {
		return Result{}, fmt.Errorf("multisite: Warmup %d must be in [0, NumBoTs)", cfg.Warmup)
	}
	if cfg.Sched.Threshold == 0 {
		cfg.Sched.Threshold = 2
	}
	if cfg.Checkpoint == (checkpoint.Config{}) {
		cfg.Checkpoint = checkpoint.DefaultConfig()
	}
	if cfg.HorizonFactor == 0 {
		cfg.HorizonFactor = 4
	}

	eng := des.New()
	whole := grid.Build(cfg.Grid, rng.Root(cfg.Seed, "grid-build"))
	parts := partition(whole, cfg.Sites, cfg.Grid)

	res := Result{PerSite: make([]int, cfg.Sites)}
	// Per-bag ideal makespans are taken against the WHOLE grid, so
	// slowdowns are comparable between architectures.
	totalPower, maxPower := 0.0, 0.0
	for _, m := range whole.Machines {
		totalPower += m.Power
		if m.Power > maxPower {
			maxPower = m.Power
		}
	}

	done := 0
	sites := make([]*core.Scheduler, cfg.Sites)
	for i, part := range parts {
		i := i
		ck := checkpoint.NewServer(cfg.Checkpoint, rng.Root(cfg.Seed, fmt.Sprintf("checkpoint-%d", i)))
		pol := core.NewPolicy(cfg.Policy, rng.Root(cfg.Seed, fmt.Sprintf("policy-%d", i)))
		s := core.NewScheduler(eng, part, ck, pol, cfg.Sched, nil)
		s.OnBagDone = func(b *core.Bag) {
			done++
			res.PerSite[i]++
			if done > cfg.Warmup {
				res.Bags = append(res.Bags, b.Stats(totalPower, maxPower))
			}
			if done == cfg.NumBoTs {
				eng.Stop()
			}
		}
		part.Start(eng, rng.Root(cfg.Seed, fmt.Sprintf("availability-%d", i)), s)
		sites[i] = s
	}

	disp := newDispatcher(cfg.Dispatch, sites, rng.Root(cfg.Seed, "dispatch"))
	gen := workload.NewGenerator(cfg.Workload,
		rng.Root(cfg.Seed, "tasks"), rng.Root(cfg.Seed, "arrivals"))
	submitted := 0
	var arrive func(b *workload.BoT)
	arrive = func(b *workload.BoT) {
		eng.ScheduleAt(b.Arrival, func(*des.Engine) {
			disp.route(b)
			submitted++
			if submitted < cfg.NumBoTs {
				arrive(gen.Next())
			}
		})
	}
	arrive(gen.Next())

	horizon := cfg.HorizonFactor * float64(cfg.NumBoTs) / cfg.Workload.Lambda
	eng.ScheduleAt(horizon, func(e *des.Engine) { e.Stop() })
	eng.Run()

	res.Submitted = submitted
	res.Completed = done
	res.Saturated = done < cfg.NumBoTs
	res.SimEnd = eng.Now()
	return res, nil
}

// partition splits a built grid's machines round-robin into n site grids.
// Round-robin keeps each site's power mix representative under Het.
func partition(g *grid.Grid, n int, cfg grid.Config) []*grid.Grid {
	powers := make([][]float64, n)
	for i, m := range g.Machines {
		powers[i%n] = append(powers[i%n], m.Power)
	}
	sites := make([]*grid.Grid, n)
	for i := range sites {
		if len(powers[i]) == 0 {
			// More sites than machines: give the site a token machine
			// share by splitting is impossible — fail loudly instead.
			panic(fmt.Sprintf("multisite: site %d has no machines (grid has %d, sites %d)",
				i, g.NumMachines(), n))
		}
		sites[i] = grid.NewCustom(cfg, powers[i])
	}
	return sites
}

// dispatcher routes bags to sites.
type dispatcher struct {
	kind  Dispatch
	sites []*core.Scheduler
	str   *rng.Stream
	next  int
}

func newDispatcher(kind Dispatch, sites []*core.Scheduler, str *rng.Stream) *dispatcher {
	return &dispatcher{kind: kind, sites: sites, str: str}
}

func (d *dispatcher) route(b *workload.BoT) {
	var target *core.Scheduler
	switch d.kind {
	case RandomSite:
		target = d.sites[d.str.IntN(len(d.sites))]
	case LeastLoadedSite:
		target = d.sites[0]
		best := outstanding(target)
		for _, s := range d.sites[1:] {
			if w := outstanding(s); w < best {
				best = w
				target = s
			}
		}
	default: // RoundRobinSite
		target = d.sites[d.next%len(d.sites)]
		d.next++
	}
	target.Submit(b.Granularity, b.TaskWork)
}

// outstanding returns a site's remaining queued work in reference seconds.
func outstanding(s *core.Scheduler) float64 {
	w := 0.0
	for _, b := range s.Bags() {
		w += b.RemainingWork()
	}
	return w
}
