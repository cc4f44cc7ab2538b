package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"botgrid/internal/workload"
)

func TestOperationalLaws(t *testing.T) {
	d := workload.Demand(2.5e6, 1000)
	if d != 2500 {
		t.Fatalf("demand = %v, want 2500", d)
	}
	if u := Utilization(0.9/2500, 2500); math.Abs(u-0.9) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.9", u)
	}
	if s := SaturationLambda(2500); math.Abs(s-4e-4) > 1e-12 {
		t.Fatalf("saturation lambda = %v, want 4e-4", s)
	}
}

func TestMG1Wait(t *testing.T) {
	// M/M/1 special case (cv²=1): W = ρS/(1−ρ). ρ=0.5, S=1 → W=1.
	w, err := MG1Wait(0.5, 1, 1)
	if err != nil || math.Abs(w-1) > 1e-12 {
		t.Fatalf("M/M/1 wait = %v (%v), want 1", w, err)
	}
	// M/D/1 (cv²=0) waits half as long.
	wd, _ := MG1Wait(0.5, 1, 0)
	if math.Abs(wd-0.5) > 1e-12 {
		t.Fatalf("M/D/1 wait = %v, want 0.5", wd)
	}
	// Saturated system: infinite wait.
	ws, _ := MG1Wait(1.0, 1, 1)
	if !math.IsInf(ws, 1) {
		t.Fatalf("saturated wait = %v, want +Inf", ws)
	}
	if _, err := MG1Wait(0, 1, 1); err == nil {
		t.Fatal("accepted zero lambda")
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// Area bound dominates: 4 tasks of 100 on 2 machines of power 1 → 200.
	if got := MakespanLowerBound([]float64{100, 100, 100, 100}, []float64{1, 1}); got != 200 {
		t.Fatalf("bound = %v, want 200", got)
	}
	// Critical path dominates: one huge task.
	if got := MakespanLowerBound([]float64{1000, 10}, []float64{1, 1}); got != 1000 {
		t.Fatalf("bound = %v, want 1000", got)
	}
	// Faster machines lower both terms.
	if got := MakespanLowerBound([]float64{1000, 10}, []float64{10, 10}); got != 100 {
		t.Fatalf("bound = %v, want 100", got)
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { SaturationLambda(0) },
		func() { MakespanLowerBound(nil, []float64{1}) },
		func() { MakespanLowerBound([]float64{1}, nil) },
		func() { MakespanLowerBound([]float64{0}, []float64{1}) },
		func() { MakespanLowerBound([]float64{1}, []float64{0}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestQuickBoundsConsistent(t *testing.T) {
	f := func(seedW, seedP []uint8) bool {
		if len(seedW) == 0 || len(seedP) == 0 {
			return true
		}
		works := make([]float64, len(seedW))
		for i, v := range seedW {
			works[i] = float64(v) + 1
		}
		powers := make([]float64, len(seedP))
		for i, v := range seedP {
			powers[i] = float64(v)/16 + 0.5
		}
		lb := MakespanLowerBound(works, powers)
		// The bound is positive and never exceeds serial execution on
		// the slowest machine.
		minP := powers[0]
		var total float64
		for _, p := range powers {
			if p < minP {
				minP = p
			}
		}
		for _, w := range works {
			total += w
		}
		return lb > 0 && lb <= total/minP+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
