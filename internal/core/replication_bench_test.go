package core

import (
	"fmt"
	"testing"

	"botgrid/internal/grid"
	"botgrid/internal/workload"
)

// replicationConfigs is the whole-simulation throughput matrix: grid
// heterogeneity × availability × task granularity. The LowAvail /
// gran=1000 cell is the event-heavy extreme (many small tasks plus a
// failure-heavy Weibull churn keeps the event queue deep).
func replicationConfigs() []struct {
	name string
	cfg  RunConfig
} {
	var out []struct {
		name string
		cfg  RunConfig
	}
	for _, h := range []struct {
		name string
		het  grid.Heterogeneity
	}{{"Hom", grid.Hom}, {"Het", grid.Het}} {
		for _, a := range []struct {
			name  string
			avail grid.Availability
		}{{"HighAvail", grid.HighAvail}, {"LowAvail", grid.LowAvail}} {
			for _, gran := range []float64{1000, 25000} {
				gc := grid.DefaultConfig(h.het, a.avail)
				lambda := workload.LambdaForUtilization(
					0.5, 100000, EffectivePower(gc, RunConfig{}.withDefaults().Checkpoint))
				cfg := RunConfig{
					Seed: 7,
					Grid: gc,
					Workload: workload.Config{
						Granularities: []float64{gran},
						AppSize:       100000,
						Spread:        0.5,
						Lambda:        lambda,
					},
					Policy:  FCFSShare,
					NumBoTs: 20,
					Warmup:  2,
				}
				out = append(out, struct {
					name string
					cfg  RunConfig
				}{fmt.Sprintf("%s/%s/gran=%.0f", h.name, a.name, gran), cfg})
			}
		}
	}
	// The event-heavy stress cell: a 20000-machine LowAvail grid keeps
	// twenty thousand Weibull availability transitions pending at all
	// times, so the queue runs ~25k deep for the whole simulation, and the
	// modest utilization keeps per-event scheduler work low — most events
	// are pure queue traffic (pop a transition, sample the next, insert
	// it far future).
	gc := grid.DefaultConfig(grid.Hom, grid.LowAvail)
	gc.TotalPower = 200000
	lambda := workload.LambdaForUtilization(
		0.3, 5e7, EffectivePower(gc, RunConfig{}.withDefaults().Checkpoint))
	out = append(out, struct {
		name string
		cfg  RunConfig
	}{"Stress/LowAvail/gran=50000", RunConfig{
		Seed: 7,
		Grid: gc,
		Workload: workload.Config{
			Granularities: []float64{50000},
			AppSize:       5e7,
			Spread:        0.5,
			Lambda:        lambda,
		},
		Policy:  FCFSShare,
		NumBoTs: 6,
	}})
	return out
}

// scaleConfigs opens the machine-count and load axes beyond the matrix:
// 100k-to-1M-machine grids (the desktop-grid scales the paper gestures at
// but never simulates), a 10k-concurrent-bag backlog, and utilization at
// and past saturation. Machine-count cells scale AppSize linearly with the
// grid so the horizon — and with it the Weibull churn per machine — stays
// constant; events then grow linearly with machines and events/sec should
// hold roughly flat if the engine scales. They are kept out of
// replicationConfigs because the largest run seconds per replication.
func scaleConfigs() []struct {
	name string
	cfg  RunConfig
} {
	var out []struct {
		name string
		cfg  RunConfig
	}
	// The stress-cell recipe at 5×, 12.5× and 50× machines: Hom/LowAvail,
	// gran 50000, U=0.3, NumBoTs=6. 20k machines ≈ 0.17 s/replication, so
	// these land near 1 s, 2 s and 9 s per replication respectively.
	for _, sc := range []struct {
		name     string
		machines float64
	}{
		{"Scale/100k-machines", 1e5},
		{"Scale/250k-machines", 2.5e5},
		{"Scale/1M-machines", 1e6},
	} {
		gc := grid.DefaultConfig(grid.Hom, grid.LowAvail)
		gc.TotalPower = gc.HomPower * sc.machines
		appSize := 2.5e3 * sc.machines // AppSize ∝ machines keeps the horizon fixed
		lambda := workload.LambdaForUtilization(
			0.3, appSize, EffectivePower(gc, RunConfig{}.withDefaults().Checkpoint))
		out = append(out, struct {
			name string
			cfg  RunConfig
		}{sc.name, RunConfig{
			Seed: 7,
			Grid: gc,
			Workload: workload.Config{
				Granularities: []float64{50000},
				AppSize:       appSize,
				Spread:        0.5,
				Lambda:        lambda,
			},
			Policy:  FCFSShare,
			NumBoTs: 6,
		}})
	}
	// Backlog depth: tiny bags (10 tasks each) on the default grid at 4×
	// overload, ten thousand of them — the scheduler's per-bag structures
	// see thousands of concurrent waiting bags instead of the usual dozens.
	{
		gc := grid.DefaultConfig(grid.Hom, grid.HighAvail)
		// λ = U/D with U=4: past LambdaForUtilization's stable-regime
		// domain, so invert Eq. 1 directly.
		lambda := 4.0 / workload.Demand(1e4, EffectivePower(gc, RunConfig{}.withDefaults().Checkpoint))
		out = append(out, struct {
			name string
			cfg  RunConfig
		}{"Bags/10k-concurrent", RunConfig{
			Seed: 7,
			Grid: gc,
			Workload: workload.Config{
				Granularities: []float64{1000},
				AppSize:       1e4,
				Spread:        0.5,
				Lambda:        lambda,
			},
			Policy:  FCFSShare,
			NumBoTs: 10000,
		}})
	}
	// Utilization at and beyond 1: the knife-edge and the overloaded regime
	// the figures mark SATURATED. Horizon-bounded, so both stay cheap.
	for _, u := range []float64{1.0, 1.5} {
		gc := grid.DefaultConfig(grid.Hom, grid.HighAvail)
		lambda := u / workload.Demand(1e5, EffectivePower(gc, RunConfig{}.withDefaults().Checkpoint))
		out = append(out, struct {
			name string
			cfg  RunConfig
		}{fmt.Sprintf("Overload/U=%.1f", u), RunConfig{
			Seed: 7,
			Grid: gc,
			Workload: workload.Config{
				Granularities: []float64{25000},
				AppSize:       1e5,
				Spread:        0.5,
				Lambda:        lambda,
			},
			Policy:  FCFSShare,
			NumBoTs: 40,
		}})
	}
	return out
}

// benchReplication runs whole simulations and reports throughput in
// events/sec per configuration.
func benchReplication(b *testing.B, cfg RunConfig) {
	b.Helper()
	// One warm Runner across iterations, as a sweep worker would run:
	// allocator growth is paid before the timer starts, not once per run.
	var r Runner
	if _, err := r.Run(cfg); err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.EventsFired
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// BenchmarkReplication measures end-to-end simulation throughput across
// the grid/workload matrix.
func BenchmarkReplication(b *testing.B) {
	for _, c := range replicationConfigs() {
		b.Run(c.name, func(b *testing.B) {
			benchReplication(b, c.cfg)
		})
	}
}

// BenchmarkReplicationScale runs the large-scale cells (100k–1M machines,
// deep bag backlogs, utilization ≥ 1). Use -benchtime 1x: the 1M-machine cell runs seconds per replication.
func BenchmarkReplicationScale(b *testing.B) {
	for _, c := range scaleConfigs() {
		b.Run(c.name, func(b *testing.B) {
			benchReplication(b, c.cfg)
		})
	}
}
