package grid

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"botgrid/internal/des"
	"botgrid/internal/rng"
)

func TestHomBuild(t *testing.T) {
	g := Build(DefaultConfig(Hom, HighAvail), rng.New(1))
	if g.NumMachines() != 100 {
		t.Fatalf("Hom grid has %d machines, want 100", g.NumMachines())
	}
	for _, m := range g.Machines {
		if m.Power != 10 {
			t.Fatalf("machine %d power = %v, want 10", m.ID, m.Power)
		}
		if !m.Up() {
			t.Fatalf("machine %d should start up", m.ID)
		}
	}
	if g.TotalPower() != 1000 {
		t.Fatalf("total power = %v, want 1000", g.TotalPower())
	}
}

func TestHetBuild(t *testing.T) {
	g := Build(DefaultConfig(Het, HighAvail), rng.New(2))
	if g.TotalPower() < 1000 {
		t.Fatalf("total power = %v, want >= 1000", g.TotalPower())
	}
	// Adding machines stops as soon as the target is crossed, so removing
	// the last machine must leave us under the target.
	last := g.Machines[len(g.Machines)-1]
	if g.TotalPower()-last.Power >= 1000 {
		t.Fatal("grid has more machines than needed")
	}
	for _, m := range g.Machines {
		if m.Power < 2.3 || m.Power >= 17.7 {
			t.Fatalf("machine power %v outside [2.3,17.7)", m.Power)
		}
	}
	// ~100 machines on average (paper: "about 100").
	if n := g.NumMachines(); n < 70 || n > 140 {
		t.Fatalf("Het grid has %d machines, want ≈100", n)
	}
	if avg := g.AvgPower(); avg < 8 || avg > 12 {
		t.Fatalf("avg power = %v, want ≈10", avg)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(DefaultConfig(Het, LowAvail), rng.New(77))
	b := Build(DefaultConfig(Het, LowAvail), rng.New(77))
	if a.NumMachines() != b.NumMachines() {
		t.Fatal("same seed produced different machine counts")
	}
	for i := range a.Machines {
		if a.Machines[i].Power != b.Machines[i].Power {
			t.Fatal("same seed produced different powers")
		}
	}
}

func TestConfigNames(t *testing.T) {
	cases := []struct {
		h    Heterogeneity
		a    Availability
		want string
	}{
		{Hom, HighAvail, "Hom-HighAvail"},
		{Hom, MedAvail, "Hom-MedAvail"},
		{Het, LowAvail, "Het-LowAvail"},
		{Het, AlwaysUp, "Het-AlwaysUp"},
	}
	for _, c := range cases {
		if got := DefaultConfig(c.h, c.a).Name(); got != c.want {
			t.Fatalf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestMTBF(t *testing.T) {
	cases := []struct {
		a    Availability
		want float64
	}{
		{HighAvail, 0.98 / 0.02 * 1800}, // 88200
		{MedAvail, 0.75 / 0.25 * 1800},  // 5400
		{LowAvail, 1800},
	}
	for _, c := range cases {
		cfg := DefaultConfig(Hom, c.a)
		if got := cfg.MTBF(); math.Abs(got-c.want) > 1e-6 {
			t.Fatalf("%v MTBF = %v, want %v", c.a, got, c.want)
		}
	}
	if !math.IsInf(DefaultConfig(Hom, AlwaysUp).MTBF(), 1) {
		t.Fatal("AlwaysUp MTBF should be +Inf")
	}
}

func TestAvailabilityTargets(t *testing.T) {
	if HighAvail.Target() != 0.98 || MedAvail.Target() != 0.75 || LowAvail.Target() != 0.50 {
		t.Fatal("availability targets do not match the paper")
	}
}

// upTimer is the test oracle for observed availability, the obvious
// implementation: it counts failures and repairs and adds up each
// machine's up-time at the engine's clock. Machines start up at time 0.
type upTimer struct {
	e              *des.Engine
	upSince, upFor []float64
	fails, repairs int
}

func newUpTimer(e *des.Engine, machines int) *upTimer {
	return &upTimer{e: e, upSince: make([]float64, machines), upFor: make([]float64, machines)}
}

func (u *upTimer) MachineFailed(m *Machine) {
	u.fails++
	u.upFor[m.ID] += u.e.Now() - u.upSince[m.ID]
}

func (u *upTimer) MachineRepaired(m *Machine) {
	u.repairs++
	u.upSince[m.ID] = u.e.Now()
}

// availability returns the fraction of [0, now] machine m has been up.
func (u *upTimer) availability(m *Machine) float64 {
	now := u.e.Now()
	if now <= 0 {
		return 1
	}
	up := u.upFor[m.ID]
	if m.Up() {
		up += now - u.upSince[m.ID]
	}
	return up / now
}

func TestAvailabilityProcess(t *testing.T) {
	// Simulate long enough that observed availability approaches the
	// target for each level.
	for _, a := range []Availability{HighAvail, MedAvail, LowAvail} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(Hom, a)
			g := Build(cfg, rng.New(3))
			e := des.New()
			l := newUpTimer(e, g.NumMachines())
			g.Start(e, rng.New(4), l)
			horizon := 3e6 // ~34 simulated days
			e.RunUntil(horizon)
			var sum float64
			failures := 0
			for _, m := range g.Machines {
				sum += l.availability(m)
				failures += m.Failures()
			}
			got := sum / float64(len(g.Machines))
			want := a.Target()
			if math.Abs(got-want) > 0.03 {
				t.Fatalf("observed availability %v, want ≈%v", got, want)
			}
			if l.fails == 0 || l.repairs == 0 {
				t.Fatal("no failures/repairs observed")
			}
			if l.fails < l.repairs {
				t.Fatalf("repairs (%d) exceed failures (%d)", l.repairs, l.fails)
			}
			if failures != l.fails {
				t.Fatalf("machines count %d failures, the listener saw %d", failures, l.fails)
			}
		})
	}
}

func TestAlwaysUpSchedulesNothing(t *testing.T) {
	g := Build(DefaultConfig(Hom, AlwaysUp), rng.New(5))
	e := des.New()
	l := newUpTimer(e, g.NumMachines())
	g.Start(e, rng.New(6), l)
	if e.Len() != 0 {
		t.Fatalf("AlwaysUp scheduled %d events, want 0", e.Len())
	}
	e.RunUntil(1e6)
	if l.fails != 0 {
		t.Fatal("AlwaysUp machines failed")
	}
	for _, m := range g.Machines {
		if !m.Up() {
			t.Fatalf("AlwaysUp machine %d is down", m.ID)
		}
	}
}

func TestListenerSeesConsistentState(t *testing.T) {
	cfg := DefaultConfig(Hom, LowAvail)
	g := Build(cfg, rng.New(7))
	e := des.New()
	bad := false
	l := &stateChecker{bad: &bad}
	g.Start(e, rng.New(8), l)
	e.RunUntil(2e5)
	if bad {
		t.Fatal("listener observed machine in inconsistent state")
	}
}

type stateChecker struct{ bad *bool }

func (s *stateChecker) MachineFailed(m *Machine) {
	if m.Up() {
		*s.bad = true
	}
}
func (s *stateChecker) MachineRepaired(m *Machine) {
	if !m.Up() {
		*s.bad = true
	}
}

func TestNilListenerOK(t *testing.T) {
	g := Build(DefaultConfig(Hom, LowAvail), rng.New(11))
	e := des.New()
	g.Start(e, rng.New(12), nil)
	e.RunUntil(1e5) // must not panic
	if e.Now() != 1e5 {
		t.Fatalf("Now = %v, want 1e5", e.Now())
	}
}

func TestQuickHetPowerWithinBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := Build(DefaultConfig(Het, HighAvail), rng.New(seed))
		for _, m := range g.Machines {
			if m.Power < 2.3 || m.Power >= 17.7 {
				return false
			}
		}
		return g.TotalPower() >= 1000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero TotalPower")
		}
	}()
	Build(Config{Heterogeneity: Hom, HomPower: 10}, rng.New(1))
}

func TestNewCustom(t *testing.T) {
	g := NewCustom(DefaultConfig(Hom, AlwaysUp), []float64{5, 10, 15})
	if g.NumMachines() != 3 || g.TotalPower() != 30 {
		t.Fatalf("custom grid = %d machines / %v power", g.NumMachines(), g.TotalPower())
	}
	for i, m := range g.Machines {
		if m.ID != i || !m.Up() {
			t.Fatalf("machine %d misconfigured", i)
		}
	}
}

func TestNewCustomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive power")
		}
	}()
	NewCustom(DefaultConfig(Hom, AlwaysUp), []float64{0})
}

func TestForceFailRepair(t *testing.T) {
	g := NewCustom(DefaultConfig(Hom, AlwaysUp), []float64{10})
	m := g.Machines[0]
	m.ForceFail(100)
	if m.Up() || m.Failures() != 1 {
		t.Fatal("ForceFail did not mark machine down")
	}
	m.ForceRepair(200)
	if !m.Up() || m.Failures() != 1 {
		t.Fatal("ForceRepair did not mark machine up")
	}
	m.ForceFail(300)
	if m.Up() || m.Failures() != 2 {
		t.Fatalf("second ForceFail: up %v, %d failures; want down after 2", m.Up(), m.Failures())
	}
}

// TestMachineSize: a 100k-machine grid (the sim-churn workload) writes a
// Machine on every availability event, so Machine keeps model state only,
// in at most 32 bytes.
func TestMachineSize(t *testing.T) {
	if got := unsafe.Sizeof(Machine{}); got > 32 {
		t.Fatalf("grid.Machine is %d bytes, want at most 32", got)
	}
}

func TestForceFailPanicsWhenDown(t *testing.T) {
	g := NewCustom(DefaultConfig(Hom, AlwaysUp), []float64{10})
	g.Machines[0].ForceFail(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Machines[0].ForceFail(1)
}

func TestForceRepairPanicsWhenUp(t *testing.T) {
	g := NewCustom(DefaultConfig(Hom, AlwaysUp), []float64{10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Machines[0].ForceRepair(0)
}

func TestDiurnalFailureClustering(t *testing.T) {
	cfg := DefaultConfig(Hom, MedAvail)
	cfg.TotalPower = 500
	cfg.DiurnalPeriod = 86400
	cfg.DiurnalPeakFactor = 8
	g := Build(cfg, rng.New(31))
	e := des.New()
	l := &phaseCounter{period: cfg.DiurnalPeriod, e: e}
	g.Start(e, rng.New(32), l)
	e.RunUntil(30 * 86400)
	if l.day+l.night < 100 {
		t.Fatalf("too few failures to judge: %d", l.day+l.night)
	}
	// Failures must cluster heavily in the day phase.
	if float64(l.day) < 2*float64(l.night) {
		t.Fatalf("day failures %d vs night %d; expected strong clustering", l.day, l.night)
	}
}

type phaseCounter struct {
	period     float64
	e          *des.Engine
	day, night int
}

func (p *phaseCounter) MachineFailed(*Machine) {
	if math.Mod(p.e.Now(), p.period) < p.period/2 {
		p.day++
	} else {
		p.night++
	}
}
func (p *phaseCounter) MachineRepaired(*Machine) {}

func TestDiurnalDisabledByDefault(t *testing.T) {
	cfg := DefaultConfig(Hom, LowAvail)
	if cfg.diurnal() {
		t.Fatal("diurnal modulation should be off by default")
	}
	cfg.DiurnalPeriod = 86400
	if cfg.diurnal() {
		t.Fatal("period alone should not enable modulation")
	}
	cfg.DiurnalPeakFactor = 1
	if cfg.diurnal() {
		t.Fatal("factor 1 should not enable modulation")
	}
	cfg.DiurnalPeakFactor = 4
	if !cfg.diurnal() {
		t.Fatal("factor > 1 with period should enable modulation")
	}
}

// TestRebuildMatchesBuild rebuilds one grid through populations that grow
// and shrink, each after a stretch of availability churn: every rebuilt
// grid equals a fresh Build from the same stream, leaves the stream where
// Build leaves it, and reuses the machines it already held.
func TestRebuildMatchesBuild(t *testing.T) {
	var g Grid
	for i, cfg := range []Config{
		DefaultConfig(Het, LowAvail),
		DefaultConfig(Hom, MedAvail),
		func() Config { c := DefaultConfig(Het, HighAvail); c.TotalPower = 2500; return c }(),
		func() Config { c := DefaultConfig(Hom, LowAvail); c.TotalPower = 300; return c }(),
		DefaultConfig(Het, LowAvail),
	} {
		before := append([]*Machine(nil), g.Machines...)
		str, ref := rng.New(uint64(i)), rng.New(uint64(i))
		g.Rebuild(cfg, str)
		want := Build(cfg, ref)
		if !reflect.DeepEqual(&g, want) {
			t.Fatalf("population %d: the rebuilt grid differs from Build", i)
		}
		if str.Uint64() != ref.Uint64() {
			t.Fatalf("population %d: Rebuild left its stream elsewhere than Build", i)
		}
		for j := 0; j < min(len(before), len(g.Machines)); j++ {
			if g.Machines[j] != before[j] {
				t.Fatalf("population %d: machine %d was reallocated", i, j)
			}
		}
		// Churn, so the next rebuild starts from failed, repaired and
		// mid-transition machines.
		e := des.New()
		g.Start(e, rng.New(99), nil)
		e.RunUntil(2e5)
	}
}
