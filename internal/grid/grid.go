// Package grid models the Desktop Grid of the paper: a set of
// independently-owned machines with heterogeneous computing power that fail
// and recover without notice.
//
// Configurations follow Section 4.1 of the paper: a fixed total computing
// power (1000) is partitioned into machines either homogeneously (all
// P_i = 10, hence 100 machines) or heterogeneously (P_i ~ U[2.3, 17.7],
// machines added until the total power target is reached). Machine
// availability alternates Weibull-distributed up-times with
// truncated-normal repair times (mean 1800 s, sd 300 s, 99 % of the mass in
// [900, 2700] s); the availability level (≈98 %, ≈75 %, ≈50 %) fixes the
// mean time between failures via A = MTBF/(MTBF+MTTR).
package grid

import (
	"fmt"
	"math"

	"botgrid/internal/des"
	"botgrid/internal/rng"
)

// Heterogeneity selects how individual machine powers are drawn.
type Heterogeneity int

const (
	// Hom gives every machine computing power 10.
	Hom Heterogeneity = iota
	// Het draws machine powers uniformly from [2.3, 17.7].
	Het
)

// String returns the paper's name for the heterogeneity level.
func (h Heterogeneity) String() string {
	switch h {
	case Hom:
		return "Hom"
	case Het:
		return "Het"
	default:
		return fmt.Sprintf("Heterogeneity(%d)", int(h))
	}
}

// Availability selects the fraction of time machines are up.
type Availability int

const (
	// HighAvail is ≈98 % availability (enterprise desktop grids).
	HighAvail Availability = iota
	// MedAvail is ≈75 % availability.
	MedAvail
	// LowAvail is ≈50 % availability (volunteer computing).
	LowAvail
	// AlwaysUp disables failures entirely; not part of the paper's
	// scenarios but useful for testing and ablations.
	AlwaysUp
)

// String returns the paper's name for the availability level.
func (a Availability) String() string {
	switch a {
	case HighAvail:
		return "HighAvail"
	case MedAvail:
		return "MedAvail"
	case LowAvail:
		return "LowAvail"
	case AlwaysUp:
		return "AlwaysUp"
	default:
		return fmt.Sprintf("Availability(%d)", int(a))
	}
}

// Target returns the nominal availability fraction.
func (a Availability) Target() float64 {
	switch a {
	case HighAvail:
		return 0.98
	case MedAvail:
		return 0.75
	case LowAvail:
		return 0.50
	case AlwaysUp:
		return 1.0
	default:
		panic(fmt.Sprintf("grid: unknown availability %d", int(a)))
	}
}

// Config describes a Desktop Grid configuration.
type Config struct {
	Heterogeneity Heterogeneity
	Availability  Availability

	// TotalPower is the target sum of machine powers (paper: 1000).
	TotalPower float64
	// HomPower is the per-machine power in the Hom case (paper: 10).
	HomPower float64
	// HetLo and HetHi bound the uniform power distribution in the Het
	// case (paper: 2.3 and 17.7).
	HetLo, HetHi float64

	// WeibullShape is the shape of the machine up-time distribution.
	// The paper cites Nurmi/Brevik/Wolski fits (shape < 1, heavy tail);
	// we default to 0.7 (see DESIGN.md).
	WeibullShape float64
	// RepairMean, RepairSD, RepairLo and RepairHi parameterize the
	// truncated-normal repair time (paper: 1800, 300, 900, 2700).
	RepairMean, RepairSD, RepairLo, RepairHi float64

	// DiurnalPeriod and DiurnalPeakFactor extend the paper's stationary
	// model with workday churn: during the first half of each period
	// ("day", owners reclaim machines) up-times are drawn with the
	// Weibull scale divided by the factor; during the second half
	// ("night") multiplied by it. A zero or sub-1 factor disables the
	// modulation (the paper's model). The long-run mean availability is
	// approximately preserved, while failures cluster in the day phase.
	DiurnalPeriod, DiurnalPeakFactor float64
}

// diurnal reports whether diurnal modulation is active.
func (c Config) diurnal() bool { return c.DiurnalPeakFactor > 1 && c.DiurnalPeriod > 0 }

// DefaultConfig returns the paper's configuration for the given
// heterogeneity and availability levels.
func DefaultConfig(h Heterogeneity, a Availability) Config {
	return Config{
		Heterogeneity: h,
		Availability:  a,
		TotalPower:    1000,
		HomPower:      10,
		HetLo:         2.3,
		HetHi:         17.7,
		WeibullShape:  0.7,
		RepairMean:    1800,
		RepairSD:      300,
		RepairLo:      900,
		RepairHi:      2700,
	}
}

// Name returns the paper's scenario name, e.g. "Het-LowAvail".
func (c Config) Name() string {
	return c.Heterogeneity.String() + "-" + c.Availability.String()
}

// MTBF returns the mean time between failures implied by the availability
// target and the mean repair time: MTBF = A/(1-A) · MTTR. It is +Inf for
// AlwaysUp.
func (c Config) MTBF() float64 {
	a := c.Availability.Target()
	if a >= 1 {
		return math.Inf(1)
	}
	return a / (1 - a) * c.RepairMean
}

// Machine is a single desktop-grid resource. It holds model state only:
// a 100k-machine grid writes one Machine per availability event, and
// TestMachineSize keeps it at 32 bytes.
type Machine struct {
	// ID is the machine's index within its grid.
	ID int
	// Power is the machine's computing power; a task with duration X on
	// the reference machine (power 1) runs in X/Power seconds here.
	Power float64

	up       bool
	failures int
}

// Up reports whether the machine is currently available.
func (m *Machine) Up() bool { return m.up }

// Failures returns the number of failures the machine has suffered so far.
func (m *Machine) Failures() int { return m.failures }

// ForceFail marks an up machine down at time now without scheduling a
// repair. It is the failure-injection hook for tests and deterministic
// experiments; the caller is responsible for notifying its Listener. A
// machine records no times; now is taken so call sites read as timed
// transitions.
func (m *Machine) ForceFail(now float64) {
	if !m.up {
		panic(fmt.Sprintf("grid: machine %d already down", m.ID))
	}
	m.up = false
	m.failures++
}

// ForceRepair marks a down machine up at time now. See ForceFail.
func (m *Machine) ForceRepair(now float64) {
	if m.up {
		panic(fmt.Sprintf("grid: machine %d already up", m.ID))
	}
	m.up = true
}

// Listener receives machine state-change notifications. The scheduler
// implements it.
type Listener interface {
	// MachineFailed fires when an up machine crashes or departs. Any
	// computation on it is lost.
	MachineFailed(m *Machine)
	// MachineRepaired fires when a failed machine rejoins the grid.
	MachineRepaired(m *Machine)
}

// Grid is an instantiated set of machines.
type Grid struct {
	Config   Config
	Machines []*Machine
}

// Build draws the machine population for cfg using stream str. Powers are
// drawn once at build time; availability processes start with Start.
func Build(cfg Config, str *rng.Stream) *Grid {
	g := new(Grid)
	g.Rebuild(cfg, str)
	return g
}

// Rebuild redraws g in place as the grid Build(cfg, str) returns: it draws
// exactly what Build draws from str, into the Machine structs g already
// holds. A larger population grows the slice; a smaller one reslices it and
// keeps the spare machines for a later Rebuild. Every *Machine of g's
// earlier population may come back as a machine of the new one, so a
// caller that rebuilds must drop, or stop reading, its machine pointers.
func (g *Grid) Rebuild(cfg Config, str *rng.Stream) {
	if cfg.TotalPower <= 0 {
		panic("grid: TotalPower must be positive")
	}
	g.Config = cfg
	ms := g.Machines[:0]
	total := 0.0
	for total < cfg.TotalPower {
		var p float64
		switch cfg.Heterogeneity {
		case Hom:
			p = cfg.HomPower
		case Het:
			p = str.Uniform(cfg.HetLo, cfg.HetHi)
		default:
			panic(fmt.Sprintf("grid: unknown heterogeneity %d", int(cfg.Heterogeneity)))
		}
		var m *Machine
		if n := len(ms); n < cap(ms) {
			m = ms[:n+1][n] // a spare machine of an earlier population
		}
		if m == nil {
			m = new(Machine)
		}
		*m = Machine{ID: len(ms), Power: p, up: true}
		ms = append(ms, m)
		total += p
	}
	g.Machines = ms
}

// NewCustom builds a grid with exactly the given machine powers, all up.
// It is the hook for tests and ablations that need hand-crafted machine
// populations; cfg supplies the availability model when Start is used.
func NewCustom(cfg Config, powers []float64) *Grid {
	g := &Grid{Config: cfg}
	for i, p := range powers {
		if p <= 0 {
			panic(fmt.Sprintf("grid: machine power %v must be positive", p))
		}
		g.Machines = append(g.Machines, &Machine{ID: i, Power: p, up: true})
	}
	return g
}

// NumMachines returns the number of machines in the grid.
func (g *Grid) NumMachines() int { return len(g.Machines) }

// TotalPower returns the sum of machine powers actually drawn.
func (g *Grid) TotalPower() float64 {
	t := 0.0
	for _, m := range g.Machines {
		t += m.Power
	}
	return t
}

// AvgPower returns the mean machine power.
func (g *Grid) AvgPower() float64 {
	return g.TotalPower() / float64(len(g.Machines))
}

// Start launches the availability process of every machine on engine e.
// Failure inter-times are Weibull(shape, scale-for-MTBF); repair times are
// truncated normal. Listener l may be nil (useful when only availability
// traces are needed). With AlwaysUp no events are scheduled.
func (g *Grid) Start(e *des.Engine, str *rng.Stream, l Listener) {
	if g.Config.Availability == AlwaysUp {
		return
	}
	mtbf := g.Config.MTBF()
	p := &availProc{
		g:     g,
		str:   str,
		l:     l,
		scale: rng.WeibullScaleForMean(g.Config.WeibullShape, mtbf),
	}
	p.failFn = p.fail
	p.repairFn = p.repair
	for _, m := range g.Machines {
		p.scheduleFailure(e, m)
	}
}

// availProc drives the alternating up/down renewal process of every machine
// in a grid. One instance per Start call carries the shared parameters and
// the two pre-bound event callbacks, so the steady-state failure/repair
// churn schedules events with a *Machine argument and allocates nothing.
type availProc struct {
	g        *Grid
	str      *rng.Stream
	l        Listener
	scale    float64
	failFn   func(*des.Engine, any)
	repairFn func(*des.Engine, any)
}

// scheduleFailure draws the next Weibull up-time (with optional diurnal
// modulation of the scale at the draw instant) and schedules the failure.
func (p *availProc) scheduleFailure(e *des.Engine, m *Machine) {
	effScale := p.scale
	if cfg := p.g.Config; cfg.diurnal() {
		phase := math.Mod(e.Now(), cfg.DiurnalPeriod)
		if phase < cfg.DiurnalPeriod/2 {
			effScale = p.scale / cfg.DiurnalPeakFactor
		} else {
			effScale = p.scale * cfg.DiurnalPeakFactor
		}
	}
	up := p.str.Weibull(p.g.Config.WeibullShape, effScale)
	e.ScheduleFunc(up, p.failFn, m)
}

func (p *availProc) fail(e *des.Engine, arg any) {
	m := arg.(*Machine)
	m.up = false
	m.failures++
	if p.l != nil {
		p.l.MachineFailed(m)
	}
	cfg := p.g.Config
	repair := p.str.TruncNormal(cfg.RepairMean, cfg.RepairSD, cfg.RepairLo, cfg.RepairHi)
	e.ScheduleFunc(repair, p.repairFn, m)
}

func (p *availProc) repair(e *des.Engine, arg any) {
	m := arg.(*Machine)
	m.up = true
	if p.l != nil {
		p.l.MachineRepaired(m)
	}
	p.scheduleFailure(e, m)
}
