package workload

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"botgrid/internal/rng"
)

func cfg(gran, lambda float64) Config {
	return Config{
		Granularities: []float64{gran},
		AppSize:       DefaultAppSize,
		Spread:        DefaultSpread,
		Lambda:        lambda,
	}
}

func newGen(c Config, seed uint64) *Generator {
	return NewGenerator(c, rng.Root(seed, "tasks"), rng.Root(seed, "arrivals"))
}

func TestBoTSizes(t *testing.T) {
	// With granularity X and app size S the bag should hold ≈ S/X tasks
	// and total work in [S, S+1.5X).
	for _, gran := range DefaultGranularities {
		g := newGen(cfg(gran, 1e-3), 1)
		for i := 0; i < 20; i++ {
			b := g.Next()
			if b.Granularity != gran {
				t.Fatalf("granularity = %v, want %v", b.Granularity, gran)
			}
			total := b.TotalWork()
			if total < DefaultAppSize || total >= DefaultAppSize+1.5*gran {
				t.Fatalf("gran %v: total work %v outside [%v, %v)",
					gran, total, DefaultAppSize, DefaultAppSize+1.5*gran)
			}
			want := DefaultAppSize / gran
			n := float64(b.NumTasks())
			if n < want*0.8 || n > want*1.25+1 {
				t.Fatalf("gran %v: %v tasks, want ≈%v", gran, n, want)
			}
		}
	}
}

func TestTaskDurationBounds(t *testing.T) {
	g := newGen(cfg(1000, 1e-3), 2)
	for i := 0; i < 10; i++ {
		b := g.Next()
		for _, w := range b.TaskWork {
			if w < 500 || w >= 1500 {
				t.Fatalf("task work %v outside [500,1500)", w)
			}
		}
	}
}

func TestTasksPerBagMatchDesign(t *testing.T) {
	// DESIGN.md's reconstruction: 2500/500/100/20 tasks per bag. Mean task
	// duration is the granularity, so expected counts are appSize/gran.
	wants := map[float64]int{1000: 2500, 5000: 500, 25000: 100, 125000: 20}
	for gran, want := range wants {
		g := newGen(cfg(gran, 1e-3), 3)
		var sum int
		const bags = 50
		for i := 0; i < bags; i++ {
			sum += g.Next().NumTasks()
		}
		avg := float64(sum) / bags
		if math.Abs(avg-float64(want))/float64(want) > 0.05 {
			t.Fatalf("gran %v: average %.1f tasks per bag, want ≈%d", gran, avg, want)
		}
	}
}

func TestArrivalsPoisson(t *testing.T) {
	lambda := 1.0 / 2500
	g := newGen(cfg(5000, lambda), 4)
	n := 20000
	bots := g.Take(n)
	// Arrival times strictly increase and IDs are sequential.
	for i := 1; i < n; i++ {
		if bots[i].Arrival <= bots[i-1].Arrival {
			t.Fatal("arrivals not strictly increasing")
		}
		if bots[i].ID != bots[i-1].ID+1 {
			t.Fatal("IDs not sequential")
		}
	}
	// Mean inter-arrival ≈ 1/λ.
	mean := bots[n-1].Arrival / float64(n)
	if math.Abs(mean-2500)/2500 > 0.03 {
		t.Fatalf("mean inter-arrival = %v, want ≈2500", mean)
	}
}

func TestLambdaForUtilization(t *testing.T) {
	// U = λ·D with D = appSize/power: λ = U·power/appSize.
	got := LambdaForUtilization(0.9, 2.5e6, 1000)
	want := 0.9 * 1000 / 2.5e6
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("lambda = %v, want %v", got, want)
	}
	// Demand for the whole grid: 2500 s.
	if d := Demand(2.5e6, 1000); d != 2500 {
		t.Fatalf("demand = %v, want 2500", d)
	}
}

func TestLambdaPanics(t *testing.T) {
	for _, u := range []float64{0, 1, -0.5, 1.5} {
		u := u
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for utilization %v", u)
				}
			}()
			LambdaForUtilization(u, 2.5e6, 1000)
		}()
	}
	for _, in := range [][2]float64{{2.5e6, 0}, {0, 1000}, {-1, 1000}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for demand inputs %v", in)
				}
			}()
			Demand(in[0], in[1])
		}()
	}
}

func TestValidate(t *testing.T) {
	good := cfg(1000, 1e-3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{AppSize: 1, Spread: 0.5, Lambda: 1},                                  // no granularities
		{Granularities: []float64{0}, AppSize: 1, Spread: 0.5, Lambda: 1},     // zero granularity
		{Granularities: []float64{1000}, AppSize: 0, Spread: 0.5, Lambda: 1},  // zero size
		{Granularities: []float64{1000}, AppSize: 1, Spread: 1.0, Lambda: 1},  // spread too big
		{Granularities: []float64{1000}, AppSize: 1, Spread: -0.1, Lambda: 1}, // negative spread
		{Granularities: []float64{1000}, AppSize: 1, Spread: 0.5, Lambda: 0},  // zero lambda
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := newGen(cfg(5000, 1e-3), 42)
	b := newGen(cfg(5000, 1e-3), 42)
	for i := 0; i < 50; i++ {
		x, y := a.Next(), b.Next()
		if x.Arrival != y.Arrival || x.NumTasks() != y.NumTasks() {
			t.Fatal("same seed produced different workloads")
		}
		for j := range x.TaskWork {
			if x.TaskWork[j] != y.TaskWork[j] {
				t.Fatal("same seed produced different task durations")
			}
		}
	}
}

func TestNextIntoMatchesNext(t *testing.T) {
	c := Config{Granularities: DefaultGranularities, AppSize: 2e5, Spread: 0.5, Lambda: 1e-3}
	a, b := newGen(c, 9), newGen(c, 9)
	var bot BoT
	grown := 0
	for i := 0; i < 50; i++ {
		want := a.Next()
		before := cap(bot.TaskWork)
		b.NextInto(&bot)
		if bot.ID != want.ID || bot.Arrival != want.Arrival || bot.Granularity != want.Granularity ||
			!slices.Equal(bot.TaskWork, want.TaskWork) {
			t.Fatalf("BoT %d: NextInto gives %+v, Next gives %+v", i, bot, *want)
		}
		if cap(bot.TaskWork) != before {
			grown++
		}
	}
	if grown > 10 {
		t.Fatalf("TaskWork storage grew on %d of 50 draws: NextInto does not reuse it", grown)
	}
}

func TestMixedGranularities(t *testing.T) {
	c := Config{
		Granularities: DefaultGranularities,
		AppSize:       DefaultAppSize,
		Spread:        DefaultSpread,
		Lambda:        1e-3,
	}
	g := newGen(c, 5)
	seen := map[float64]int{}
	for i := 0; i < 400; i++ {
		b := g.Next()
		seen[b.Granularity]++
		lo := b.Granularity * 0.5
		hi := b.Granularity * 1.5
		for _, w := range b.TaskWork {
			if w < lo || w >= hi {
				t.Fatalf("task work %v outside [%v,%v)", w, lo, hi)
			}
		}
	}
	for _, gran := range DefaultGranularities {
		if seen[gran] < 50 {
			t.Fatalf("granularity %v drawn only %d/400 times", gran, seen[gran])
		}
	}
}

func TestInvalidConfigPanicsInConstructor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newGen(Config{}, 1)
}

func TestQuickTotalWorkAtLeastAppSize(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		gran := DefaultGranularities[int(pick)%len(DefaultGranularities)]
		g := newGen(cfg(gran, 1e-3), seed)
		b := g.Next()
		return b.TotalWork() >= DefaultAppSize && b.NumTasks() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSpread(t *testing.T) {
	c := cfg(1000, 1e-3)
	c.Spread = 0
	b := newGen(c, 6).Next()
	for _, w := range b.TaskWork {
		if w != 1000 {
			t.Fatalf("zero-spread task work = %v, want 1000", w)
		}
	}
	if b.NumTasks() != 2500 {
		t.Fatalf("zero-spread bag has %d tasks, want 2500", b.NumTasks())
	}
}

func TestWeibullTaskDistribution(t *testing.T) {
	c := cfg(5000, 1e-3)
	c.Dist = WeibullDist
	g := newGen(c, 21)
	var acc float64
	n := 0
	for i := 0; i < 30; i++ {
		b := g.Next()
		for _, w := range b.TaskWork {
			if w <= 0 {
				t.Fatalf("non-positive weibull duration %v", w)
			}
			acc += w
			n++
		}
	}
	mean := acc / float64(n)
	if math.Abs(mean-5000)/5000 > 0.15 {
		t.Fatalf("weibull task mean = %v, want ≈5000", mean)
	}
}

func TestLognormalTaskDistribution(t *testing.T) {
	c := cfg(5000, 1e-3)
	c.Dist = LognormalDist
	c.DistShape = 0.8
	g := newGen(c, 22)
	var acc float64
	n := 0
	for i := 0; i < 40; i++ {
		b := g.Next()
		for _, w := range b.TaskWork {
			if w <= 0 {
				t.Fatalf("non-positive lognormal duration %v", w)
			}
			acc += w
			n++
		}
	}
	mean := acc / float64(n)
	if math.Abs(mean-5000)/5000 > 0.15 {
		t.Fatalf("lognormal task mean = %v, want ≈5000", mean)
	}
}

func TestHeavyTailHasHigherVariance(t *testing.T) {
	variance := func(dist TaskDist) float64 {
		c := cfg(5000, 1e-3)
		c.Dist = dist
		g := newGen(c, 23)
		var mean, m2 float64
		n := 0
		for i := 0; i < 40; i++ {
			for _, w := range g.Next().TaskWork {
				n++
				d := w - mean
				mean += d / float64(n)
				m2 += d * (w - mean)
			}
		}
		return m2 / float64(n-1)
	}
	if !(variance(WeibullDist) > 3*variance(UniformDist)) {
		t.Fatal("weibull tasks should be far more variable than uniform ones")
	}
}

func TestDistValidation(t *testing.T) {
	c := cfg(1000, 1e-3)
	c.Dist = TaskDist(99)
	if err := c.Validate(); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	c = cfg(1000, 1e-3)
	c.DistShape = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative shape accepted")
	}
	if UniformDist.String() != "uniform" || WeibullDist.String() != "weibull" ||
		LognormalDist.String() != "lognormal" {
		t.Fatal("distribution names wrong")
	}
}
