package core

import (
	"fmt"
	"math"

	"botgrid/internal/checkpoint"
	"botgrid/internal/des"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
	"botgrid/internal/workload"
)

// RunConfig describes one complete simulation run: a grid, a workload, a
// policy and the output-collection parameters.
type RunConfig struct {
	// Seed drives every random stream of the run.
	Seed uint64
	// Grid is the Desktop Grid configuration.
	Grid grid.Config
	// Workload is the BoT stream configuration.
	Workload workload.Config
	// Policy selects the bag-selection policy.
	Policy PolicyKind
	// Sched tunes WQR-FT (zero value: threshold 2, static replication).
	Sched SchedConfig
	// Checkpoint configures the checkpoint subsystem (zero value: the
	// paper's defaults).
	Checkpoint checkpoint.Config
	// Bots, when non-empty, replays this exact BoT stream instead of
	// generating one from Workload; NumBoTs is then derived from its
	// length. Use workload.ReadTrace to load a stream from disk.
	Bots []*workload.BoT
	// AvailTrace, when non-empty, replays this exact machine
	// availability trace instead of the stochastic Weibull/Normal
	// processes. Use grid.ReadAvailTrace to load one from disk.
	AvailTrace []grid.AvailEvent
	// NumBoTs is how many bags arrive in the run.
	NumBoTs int
	// Warmup is how many of the first completed bags to discard from
	// statistics (transient removal).
	Warmup int
	// HorizonFactor bounds the run: the simulation stops (and is marked
	// saturated) at HorizonFactor × NumBoTs/λ simulation seconds if bags
	// are still incomplete. Zero means 4.
	HorizonFactor float64
	// Observer, when non-nil, receives every scheduling event.
	Observer Observer
}

// withDefaults fills zero-valued knobs.
func (c RunConfig) withDefaults() RunConfig {
	if c.Sched.Threshold == 0 {
		c.Sched.Threshold = 2
	}
	if c.Checkpoint == (checkpoint.Config{}) {
		c.Checkpoint = checkpoint.DefaultConfig()
	}
	if c.HorizonFactor == 0 {
		c.HorizonFactor = 4
	}
	return c
}

// Validate reports configuration errors.
func (c RunConfig) Validate() error {
	if len(c.Bots) == 0 {
		if err := c.Workload.Validate(); err != nil {
			return err
		}
		if c.NumBoTs <= 0 {
			return fmt.Errorf("core: NumBoTs %d must be positive", c.NumBoTs)
		}
	} else {
		prev := -1.0
		for i, b := range c.Bots {
			if b == nil || b.NumTasks() == 0 {
				return fmt.Errorf("core: trace bag %d is empty", i)
			}
			if b.Arrival < prev {
				return fmt.Errorf("core: trace bag %d arrives out of order", i)
			}
			prev = b.Arrival
		}
	}
	if c.Warmup < 0 || c.Warmup >= c.numBots() {
		return fmt.Errorf("core: Warmup %d must be in [0, NumBoTs)", c.Warmup)
	}
	return nil
}

// numBots resolves the effective arrival count.
func (c RunConfig) numBots() int {
	if len(c.Bots) > 0 {
		return len(c.Bots)
	}
	return c.NumBoTs
}

// BagStats summarizes one completed bag, in the paper's metrics: turnaround
// = waiting + makespan, with waiting the time from arrival to the first
// task start and makespan from first start to last completion.
type BagStats struct {
	ID          int
	Granularity float64
	NumTasks    int
	Arrival     float64
	FirstStart  float64
	Completed   float64
	Waiting     float64
	Makespan    float64
	Turnaround  float64
	// IdealMakespan is the area/critical-path lower bound of the bag on
	// the run's grid (see internal/analysis): max(Σwork/Σpower,
	// max work/max power).
	IdealMakespan float64
	// Slowdown is Turnaround / IdealMakespan (≥ 1): how much worse the
	// bag fared than a perfectly packed, uncontended execution.
	Slowdown float64
}

// Result aggregates a run's output.
type Result struct {
	// Bags holds post-warmup completed bags in completion order.
	Bags []BagStats
	// Submitted and Completed count all bags (including warmup).
	Submitted, Completed int
	// Saturated is set when the horizon expired with incomplete bags:
	// the system could not drain the workload (the paper's "turnaround
	// grew beyond any reasonable limit").
	Saturated bool
	// SimEnd is the simulation time at stop.
	SimEnd float64
	// EventsFired counts simulation events (performance metric).
	EventsFired uint64
	// ReplicaFailures counts replicas lost to machine failures.
	ReplicaFailures int
	// Suspensions counts replica suspensions (SuspendOnFailure mode).
	Suspensions int
	// TasksCompleted counts completed tasks.
	TasksCompleted int
	// ReplicasStarted counts dispatched replicas; the excess over
	// TasksCompleted measures the replication/restart overhead.
	ReplicasStarted int
	// ReplicasKilled counts sibling replicas cancelled by completions.
	ReplicasKilled int
	// CheckpointSaves and CheckpointRetrieves count server transfers.
	CheckpointSaves, CheckpointRetrieves int
	// Lambda is the arrival rate used.
	Lambda float64
}

// MeanTurnaround returns the average turnaround over collected bags, or NaN
// when none completed after warmup.
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

// Runner executes simulations on one reused world. What a replication
// builds in proportion to the grid stays warm for the next: the event
// engine's arena, queue-tier capacities and rung free-list, the grid and
// its Machine structs, the scheduler's per-machine state, free stack and
// replica pool, its bag and task storage up to one task per machine, the
// checkpoint server's transfer pool, and the task-work buffer a generated
// stream draws its bags into. A caller that executes many
// replications back-to-back (a sweep cell, a replication benchmark) pays
// the allocator's growth cost once rather than once per run. The policy
// and its indexes are built afresh by every run, and bag and task storage
// past the grid-sized cap is let go when the run ends, so the carried
// storage scales with the grid and the largest bag, not with the length
// of the workload.
//
// Results are bit-identical to Run: the reused storage carries capacity
// forward, never state. One consequence reaches observers: a *grid.Machine
// passed to a callback of one run is a machine of the next run's grid too,
// with another power and history, so an observer keeps machine IDs, not
// pointers (see Observer). The zero value is ready to use. A Runner is not
// safe for concurrent use; give each worker goroutine its own.
type Runner struct {
	eng  *des.Engine
	grid grid.Grid
	ckpt checkpoint.Server
	// sched is the last run's scheduler, retired to the grid-sized storage
	// the next run's scheduler is built on.
	sched *Scheduler
	// bot is the one BoT a generated stream is drawn into; its TaskWork
	// keeps the largest bag's capacity for the next run.
	bot workload.BoT
}

// Run executes one simulation like the package-level Run, in the warm
// world.
func (r *Runner) Run(cfg RunConfig) (Result, error) {
	if r.eng == nil {
		r.eng = des.New()
	}
	r.eng.Reset()
	return r.run(cfg)
}

// Run executes one simulation and returns its results. It is deterministic
// in cfg (including Seed) and safe to call from multiple goroutines with
// distinct configs.
func Run(cfg RunConfig) (Result, error) {
	var r Runner
	return r.Run(cfg)
}

// run executes one simulation on r's engine, which must be fresh or reset.
func (r *Runner) run(cfg RunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}

	eng, g, ck := r.eng, &r.grid, &r.ckpt
	g.Rebuild(cfg.Grid, rng.Root(cfg.Seed, "grid-build"))
	ck.Reset(cfg.Checkpoint, rng.Root(cfg.Seed, "checkpoint"))
	pol := NewPolicy(cfg.Policy, rng.Root(cfg.Seed, "policy"))
	sched := newScheduler(eng, g, ck, pol, cfg.Sched, cfg.Observer, r.sched)
	r.sched = sched
	defer sched.retire()

	numBots := cfg.numBots()
	res := Result{Lambda: cfg.Workload.Lambda}
	totalPower, maxPower := 0.0, 0.0
	for _, m := range g.Machines {
		totalPower += m.Power
		if m.Power > maxPower {
			maxPower = m.Power
		}
	}
	done := 0
	sched.OnBagDone = func(b *Bag) {
		done++
		if done > cfg.Warmup {
			res.Bags = append(res.Bags, b.Stats(totalPower, maxPower))
		}
		if done == numBots {
			eng.Stop()
		}
	}

	if len(cfg.AvailTrace) > 0 {
		if err := g.Replay(eng, cfg.AvailTrace, sched); err != nil {
			return Result{}, err
		}
	} else {
		g.Start(eng, rng.Root(cfg.Seed, "availability"), sched)
	}

	// Schedule the arrival chain — a replayed trace or a generated
	// stream. Each arrival submits its bag and books the next one through
	// the same bound handler; the last one caps the scheduler's bag and
	// task pools at grid size.
	var horizon float64
	var next func() *workload.BoT
	if len(cfg.Bots) > 0 {
		totalWork, maxWork := 0.0, 0.0
		for _, b := range cfg.Bots {
			totalWork += b.TotalWork()
			for _, w := range b.TaskWork {
				if w > maxWork {
					maxWork = w
				}
			}
		}
		minPower := g.Machines[0].Power
		for _, m := range g.Machines {
			if m.Power < minPower {
				minPower = m.Power
			}
		}
		last := cfg.Bots[len(cfg.Bots)-1].Arrival
		// Drain allowance: ideal grid-wide compute time plus the
		// critical path of the largest task on the slowest machine,
		// scaled by the horizon factor.
		horizon = cfg.HorizonFactor * (last + totalWork/g.TotalPower() + maxWork/minPower + 1)
		next = func() *workload.BoT { return cfg.Bots[sched.Submitted()] }
	} else {
		gen := workload.NewGenerator(cfg.Workload,
			rng.Root(cfg.Seed, "tasks"), rng.Root(cfg.Seed, "arrivals"))
		horizon = cfg.HorizonFactor * float64(numBots) / cfg.Workload.Lambda
		// Submit copies the task works, so one BoT serves the stream.
		next = func() *workload.BoT {
			gen.NextInto(&r.bot)
			return &r.bot
		}
	}
	sched.recycle = true
	b := next()
	var arrive func(*des.Engine)
	arrive = func(*des.Engine) {
		sched.Submit(b.Granularity, b.TaskWork)
		if sched.Submitted() == numBots {
			sched.boundPools()
			return
		}
		b = next()
		eng.ScheduleAt(b.Arrival, arrive)
	}
	eng.ScheduleAt(b.Arrival, arrive)

	// Hard horizon: if the grid cannot drain the workload, stop and flag
	// saturation rather than simulating forever.
	eng.ScheduleAt(horizon, func(e *des.Engine) { e.Stop() })

	eng.Run()

	res.Submitted = sched.Submitted()
	res.Completed = sched.Completed()
	res.Saturated = sched.Completed() < numBots
	res.SimEnd = eng.Now()
	res.EventsFired = eng.Fired()
	res.ReplicaFailures = sched.ReplicaFailures()
	res.Suspensions = sched.Suspensions()
	res.TasksCompleted = sched.TasksCompleted()
	res.ReplicasStarted = sched.ReplicasStarted()
	res.ReplicasKilled = sched.ReplicasKilled()
	res.CheckpointSaves, res.CheckpointRetrieves = ck.Stats()
	return res, nil
}

// Stats summarizes a completed bag in the paper's metrics. Its ideal
// makespan is the bound max(Σwork/totalPower, max work/maxPower) on a
// grid whose machine powers sum to totalPower and peak at maxPower; a
// multi-site run passes the whole grid's powers, so its slowdowns compare
// with a centralized run's.
func (b *Bag) Stats(totalPower, maxPower float64) BagStats {
	maxWork := 0.0
	for _, t := range b.Tasks {
		if t.Work > maxWork {
			maxWork = t.Work
		}
	}
	ideal := b.TotalWork() / totalPower
	if cp := maxWork / maxPower; cp > ideal {
		ideal = cp
	}
	turnaround := b.DoneAt - b.Arrival
	return BagStats{
		ID:            b.ID,
		Granularity:   b.Granularity,
		NumTasks:      len(b.Tasks),
		Arrival:       b.Arrival,
		FirstStart:    b.FirstStart,
		Completed:     b.DoneAt,
		Waiting:       b.FirstStart - b.Arrival,
		Makespan:      b.DoneAt - b.FirstStart,
		Turnaround:    turnaround,
		IdealMakespan: ideal,
		Slowdown:      turnaround / ideal,
	}
}

// EffectivePower returns the grid power available for useful work under a
// given configuration: total power × availability × checkpoint overhead
// factor. The experiment harness divides the application size by it to
// obtain D in the paper's Eq. 1 (U = λ·D).
func EffectivePower(gc grid.Config, cc checkpoint.Config) float64 {
	interval := math.Inf(1)
	if cc.Enabled {
		interval = checkpoint.YoungInterval(cc.MeanTransfer(), gc.MTBF())
	}
	return gc.TotalPower * gc.Availability.Target() *
		checkpoint.OverheadFactor(interval, cc.MeanTransfer())
}
