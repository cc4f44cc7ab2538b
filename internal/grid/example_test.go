package grid_test

import (
	"fmt"

	"botgrid/internal/des"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
)

// Building the paper's homogeneous enterprise configuration and deriving
// its failure model.
func ExampleBuild() {
	cfg := grid.DefaultConfig(grid.Hom, grid.HighAvail)
	g := grid.Build(cfg, rng.New(1))
	fmt.Printf("%s: %d machines, total power %.0f, MTBF %.0f s\n",
		cfg.Name(), g.NumMachines(), g.TotalPower(), cfg.MTBF())
	// Output:
	// Hom-HighAvail: 100 machines, total power 1000, MTBF 88200 s
}

// Replaying a hand-written availability trace with deterministic timing.
func ExampleGrid_Replay() {
	g := grid.NewCustom(grid.DefaultConfig(grid.Hom, grid.AlwaysUp), []float64{10, 10})
	eng := des.New()
	events := []grid.AvailEvent{
		{Time: 100, Machine: 0, Up: false},
		{Time: 250, Machine: 0, Up: true},
	}
	if err := g.Replay(eng, events, nil); err != nil {
		fmt.Println("error:", err)
		return
	}
	eng.RunUntil(300)
	fmt.Printf("machine 0 up: %v, failures %d\n",
		g.Machines[0].Up(), g.Machines[0].Failures())
	// Output:
	// machine 0 up: true, failures 1
}
