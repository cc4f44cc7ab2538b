// Package workload generates the Bag-of-Tasks workloads of Section 4.2 of
// the paper.
//
// A BoT type is a task granularity X: the mean execution time of its tasks
// on the reference machine of power 1. Individual task durations are
// uniform in [X−50%X, X+50%X]. Every BoT has (approximately) the same
// total application size: tasks are added until their cumulative duration
// reaches the size. BoTs arrive in a Poisson stream whose rate λ is derived
// from a target grid utilization U through the operational law U = λ·D,
// where D is the computing demand of one BoT divided by the effective power
// of the grid (total power, scaled by availability and by the checkpoint
// overhead factor).
package workload

import (
	"fmt"

	"botgrid/internal/rng"
)

// DefaultGranularities are the four BoT types used in the study, in
// reference-machine seconds. See DESIGN.md for the reconstruction of the
// two values lost in the paper's OCR ("from 25 to 125 times larger").
var DefaultGranularities = []float64{1000, 5000, 25000, 125000}

// DefaultAppSize is the per-BoT application size in reference-machine
// seconds (see DESIGN.md: 2500/500/100/20 tasks per bag across the default
// granularities, matching the paper's tasks-vs-machines analysis).
const DefaultAppSize = 2.5e6

// DefaultSpread is the half-width of the task-duration distribution as a
// fraction of the granularity (paper: 50 %).
const DefaultSpread = 0.5

// Utilization levels for low-, medium- and high-intensity workloads.
const (
	LowIntensity    = 0.50
	MediumIntensity = 0.75
	HighIntensity   = 0.90
)

// BoT is one Bag-of-Tasks application as submitted to the scheduler.
type BoT struct {
	// ID numbers BoTs in arrival order within a run.
	ID int
	// Arrival is the submission time in simulation seconds.
	Arrival float64
	// Granularity is the BoT type (mean task duration at power 1).
	Granularity float64
	// TaskWork holds each task's duration on the reference machine.
	TaskWork []float64
}

// NumTasks returns the number of tasks in the bag.
func (b *BoT) NumTasks() int { return len(b.TaskWork) }

// TotalWork returns the bag's total computing demand in reference seconds.
func (b *BoT) TotalWork() float64 {
	t := 0.0
	for _, w := range b.TaskWork {
		t += w
	}
	return t
}

// TaskDist selects the task-duration distribution within a bag. The paper
// uses uniform ±50 % durations; the alternatives are sensitivity-analysis
// extensions with the same mean (the granularity).
type TaskDist int

const (
	// UniformDist draws durations uniform in [X−s·X, X+s·X] (paper).
	UniformDist TaskDist = iota
	// WeibullDist draws Weibull durations with configurable shape —
	// shapes below 1 give the heavy tails real BoT traces exhibit.
	WeibullDist
	// LognormalDist draws lognormal durations with configurable sigma.
	LognormalDist
)

// String names the distribution.
func (d TaskDist) String() string {
	switch d {
	case UniformDist:
		return "uniform"
	case WeibullDist:
		return "weibull"
	case LognormalDist:
		return "lognormal"
	default:
		return fmt.Sprintf("TaskDist(%d)", int(d))
	}
}

// Config describes a workload.
type Config struct {
	// Granularities lists the BoT types to draw from. A single-element
	// slice reproduces the paper's per-granularity experiments; multiple
	// elements give the mixed workloads of the paper's future-work
	// section (types chosen uniformly per arrival).
	Granularities []float64
	// AppSize is the total computation per BoT in reference seconds.
	AppSize float64
	// Spread is the half-width of task durations as a fraction of the
	// granularity (UniformDist only).
	Spread float64
	// Lambda is the BoT arrival rate (arrivals per second).
	Lambda float64
	// Dist selects the task-duration distribution (default UniformDist,
	// the paper's model).
	Dist TaskDist
	// DistShape parameterizes the non-uniform distributions: the
	// Weibull shape (default 0.8) or the lognormal sigma (default 1.0).
	DistShape float64
}

// Validate checks the configuration, returning a descriptive error.
func (c Config) Validate() error {
	if len(c.Granularities) == 0 {
		return fmt.Errorf("workload: no granularities")
	}
	for _, g := range c.Granularities {
		if g <= 0 {
			return fmt.Errorf("workload: granularity %v must be positive", g)
		}
	}
	if c.AppSize <= 0 {
		return fmt.Errorf("workload: app size %v must be positive", c.AppSize)
	}
	if c.Spread < 0 || c.Spread >= 1 {
		return fmt.Errorf("workload: spread %v must be in [0,1)", c.Spread)
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("workload: lambda %v must be positive", c.Lambda)
	}
	switch c.Dist {
	case UniformDist, WeibullDist, LognormalDist:
	default:
		return fmt.Errorf("workload: unknown task distribution %d", int(c.Dist))
	}
	if c.DistShape < 0 {
		return fmt.Errorf("workload: distribution shape %v must be non-negative", c.DistShape)
	}
	return nil
}

// shape resolves the distribution parameter default.
func (c Config) shape() float64 {
	if c.DistShape > 0 {
		return c.DistShape
	}
	switch c.Dist {
	case WeibullDist:
		return 0.8
	case LognormalDist:
		return 1.0
	default:
		return 0
	}
}

// Demand returns D, the computing demand of one BoT expressed in seconds of
// the whole grid's time: appSize / effectivePower.
func Demand(appSize, effectivePower float64) float64 {
	if appSize <= 0 || effectivePower <= 0 {
		panic(fmt.Sprintf("workload: invalid demand inputs %v/%v", appSize, effectivePower))
	}
	return appSize / effectivePower
}

// LambdaForUtilization inverts Eq. 1 of the paper (U = λ·D): it returns the
// arrival rate that loads a grid of the given effective power to target
// utilization.
func LambdaForUtilization(util, appSize, effectivePower float64) float64 {
	if util <= 0 || util >= 1 {
		panic(fmt.Sprintf("workload: utilization %v must be in (0,1)", util))
	}
	return util / Demand(appSize, effectivePower)
}

// Generator draws BoTs and their Poisson arrival times deterministically
// from two dedicated streams.
type Generator struct {
	cfg      Config
	tasks    *rng.Stream
	arrivals *rng.Stream

	nextID      int
	nextArrival float64
}

// NewGenerator builds a generator; it panics on invalid configuration (the
// experiment harness validates first and reports errors politely).
func NewGenerator(cfg Config, taskStream, arrivalStream *rng.Stream) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Generator{cfg: cfg, tasks: taskStream, arrivals: arrivalStream}
}

// Next produces the next BoT in the arrival stream.
func (g *Generator) Next() *BoT {
	b := new(BoT)
	g.NextInto(b)
	return b
}

// NextInto overwrites b with the next BoT in the arrival stream, reusing
// b.TaskWork's storage. It draws exactly what Next draws, so a caller that
// is done with each BoT before asking for the next one can use a single
// BoT for the whole stream.
func (g *Generator) NextInto(b *BoT) {
	g.nextArrival += g.arrivals.Exponential(1 / g.cfg.Lambda)
	gran := g.cfg.Granularities[0]
	if len(g.cfg.Granularities) > 1 {
		gran = g.cfg.Granularities[g.tasks.IntN(len(g.cfg.Granularities))]
	}
	*b = BoT{ID: g.nextID, Arrival: g.nextArrival, Granularity: gran, TaskWork: b.TaskWork[:0]}
	g.nextID++
	total := 0.0
	for total < g.cfg.AppSize {
		w := g.drawDuration(gran)
		b.TaskWork = append(b.TaskWork, w)
		total += w
	}
}

// drawDuration samples one task duration with mean gran under the
// configured distribution.
func (g *Generator) drawDuration(gran float64) float64 {
	switch g.cfg.Dist {
	case WeibullDist:
		shape := g.cfg.shape()
		scale := rng.WeibullScaleForMean(shape, gran)
		// Guard against zero-duration tails: clamp to a tiny fraction
		// of the granularity.
		if w := g.tasks.Weibull(shape, scale); w > gran/1000 {
			return w
		}
		return gran / 1000
	case LognormalDist:
		sigma := g.cfg.shape()
		mu := rng.LogNormalMuForMean(gran, sigma)
		return g.tasks.LogNormal(mu, sigma)
	default:
		lo := gran * (1 - g.cfg.Spread)
		hi := gran * (1 + g.cfg.Spread)
		return g.tasks.Uniform(lo, hi)
	}
}

// Take produces the next n BoTs.
func (g *Generator) Take(n int) []*BoT {
	out := make([]*BoT, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.Next())
	}
	return out
}
