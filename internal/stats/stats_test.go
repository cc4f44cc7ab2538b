package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Variance()) {
		t.Fatal("empty accumulator should report NaN")
	}
	a.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if !almost(a.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almost(a.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", a.Min(), a.Max())
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Mean() != 3 {
		t.Fatalf("mean = %v, want 3", a.Mean())
	}
	if !math.IsNaN(a.Variance()) {
		t.Fatal("variance with one sample should be NaN")
	}
	ci := a.CI(0.95)
	if !math.IsInf(ci.HalfWidth, 1) {
		t.Fatal("CI with one sample should have infinite half-width")
	}
}

func TestTQuantileTable(t *testing.T) {
	cases := []struct {
		level float64
		df    int
		want  float64
	}{
		{0.95, 1, 12.706},
		{0.95, 9, 2.262},
		{0.95, 30, 2.042},
		{0.90, 10, 1.812},
		{0.99, 5, 4.032},
	}
	for _, c := range cases {
		if got := TQuantile(c.level, c.df); !almost(got, c.want, 1e-9) {
			t.Fatalf("TQuantile(%v,%d) = %v, want %v", c.level, c.df, got, c.want)
		}
	}
}

func TestTQuantileLargeDF(t *testing.T) {
	// Should approach the normal critical value from above.
	g100 := TQuantile(0.95, 100)
	g1e6 := TQuantile(0.95, 1000000)
	if g100 < 1.96 || g100 > 2.05 {
		t.Fatalf("TQuantile(0.95,100) = %v, want ≈1.98", g100)
	}
	if !almost(g1e6, 1.96, 0.01) {
		t.Fatalf("TQuantile(0.95,1e6) = %v, want ≈1.96", g1e6)
	}
	if g100 <= g1e6 {
		t.Fatal("t quantile should decrease with df")
	}
}

func TestTQuantileUnusualLevel(t *testing.T) {
	// Falls back to the normal quantile: 0.80 two-sided → z_{0.90} ≈ 1.2816.
	if got := TQuantile(0.80, 50); !almost(got, 1.2816, 0.01) {
		t.Fatalf("TQuantile(0.80,50) = %v, want ≈1.2816", got)
	}
}

func TestCICoverage(t *testing.T) {
	// Empirical check: a 95% CI over normal samples should contain the true
	// mean roughly 95% of the time.
	r := rand.New(rand.NewSource(11))
	hits := 0
	trials := 2000
	for i := 0; i < trials; i++ {
		var a Accumulator
		for j := 0; j < 20; j++ {
			a.Add(r.NormFloat64()*3 + 10)
		}
		ci := a.CI(0.95)
		if ci.Lo() <= 10 && 10 <= ci.Hi() {
			hits++
		}
	}
	rate := float64(hits) / float64(trials)
	if rate < 0.93 || rate > 0.97 {
		t.Fatalf("CI coverage = %v, want ≈0.95", rate)
	}
}

func TestIntervalHelpers(t *testing.T) {
	ci := Interval{Mean: 100, HalfWidth: 5, Level: 0.95, N: 10}
	if ci.Lo() != 95 || ci.Hi() != 105 {
		t.Fatalf("Lo/Hi = %v/%v", ci.Lo(), ci.Hi())
	}
	if !almost(ci.RelErr(), 0.05, 1e-12) {
		t.Fatalf("RelErr = %v, want 0.05", ci.RelErr())
	}
	zero := Interval{Mean: 0, HalfWidth: 1}
	if !math.IsInf(zero.RelErr(), 1) {
		t.Fatal("RelErr of zero mean should be +Inf")
	}
	if ci.String() == "" {
		t.Fatal("String should not be empty")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); !almost(got, 1, 1e-12) {
		t.Fatalf("equal values index = %v, want 1", got)
	}
	// One dominant value among n approaches 1/n.
	if got := JainIndex([]float64{100, 0, 0, 0}); !almost(got, 0.25, 1e-12) {
		t.Fatalf("dominant value index = %v, want 0.25", got)
	}
	// Known case: {1,2,3} → 36/(3·14) = 6/7.
	if got := JainIndex([]float64{1, 2, 3}); !almost(got, 6.0/7.0, 1e-12) {
		t.Fatalf("index = %v, want 6/7", got)
	}
	if !math.IsNaN(JainIndex(nil)) || !math.IsNaN(JainIndex([]float64{0, 0})) {
		t.Fatal("degenerate inputs should be NaN")
	}
}
