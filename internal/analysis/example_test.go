package analysis_test

import (
	"fmt"

	"botgrid/internal/analysis"
	"botgrid/internal/workload"
)

// Deriving the paper's Eq. 1 quantities for the full-scale grid.
func ExampleSaturationLambda() {
	d := workload.Demand(2.5e6, 1000) // app size / grid power
	lambdaSat := analysis.SaturationLambda(d)
	fmt.Printf("D = %.0f s per bag; saturation at λ = %.1e arrivals/s\n", d, lambdaSat)
	// Output:
	// D = 2500 s per bag; saturation at λ = 4.0e-04 arrivals/s
}

func ExampleMakespanLowerBound() {
	works := []float64{1000, 1000, 500}
	powers := []float64{10, 10}
	fmt.Printf("%.0f\n", analysis.MakespanLowerBound(works, powers))
	// Output:
	// 125
}
