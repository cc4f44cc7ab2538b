package workload_test

import (
	"fmt"

	"botgrid/internal/rng"
	"botgrid/internal/workload"
)

// Generating the paper's workload: λ from the utilization law, bags sized
// by the application size.
func ExampleNewGenerator() {
	cfg := workload.Config{
		Granularities: []float64{25000},
		AppSize:       workload.DefaultAppSize, // 2.5e6 reference seconds
		Spread:        workload.DefaultSpread,
		Lambda:        workload.LambdaForUtilization(0.5, workload.DefaultAppSize, 1000),
	}
	gen := workload.NewGenerator(cfg, rng.Root(7, "tasks"), rng.Root(7, "arrivals"))
	b := gen.Next()
	fmt.Printf("bag 0: ~%d tasks\n", b.NumTasks())
	fmt.Printf("total work >= app size: %v\n", b.TotalWork() >= cfg.AppSize)
	// Output:
	// bag 0: ~97 tasks
	// total work >= app size: true
}
