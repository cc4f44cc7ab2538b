package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"botgrid/internal/core"
)

// BenchmarkSweep measures the pool engine's replication throughput at
// 1/2/4/8 workers over a fixed workload (two figures, MinReps=MaxReps so
// every run does identical work regardless of CI noise). The reps/sec
// metric is the scaling series; the cpus metric records how many cores
// the host actually had, so a flat series
// on a single-core host reads as pool overhead-neutrality rather than a
// failed speedup.
func BenchmarkSweep(b *testing.B) {
	o := QuickOptions(7)
	o.Granularities = []float64{1000, 25000}
	o.Policies = []core.PolicyKind{core.FCFSShare, core.RR}
	o.MinReps, o.MaxReps = 4, 4
	o.NumBoTs, o.Warmup = 40, 5
	f1, _ := FigureByID("F1a")
	f2, _ := FigureByID("F2a")
	figs := []Figure{f1, f2}
	totalReps := o.MaxReps * len(o.Granularities) * len(o.Policies) * len(figs)

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o.Parallelism = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunSweep(figs, o); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(totalReps*b.N)/elapsed, "reps/sec")
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cpus")
		})
	}
}
