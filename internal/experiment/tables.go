package experiment

import (
	"fmt"
	"io"
	"math"

	"botgrid/internal/analysis"
	"botgrid/internal/checkpoint"
	"botgrid/internal/core"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
	"botgrid/internal/workload"
)

// ConfigRow summarizes one Desktop Grid configuration (the paper's §4.1
// description, experiment id T1).
type ConfigRow struct {
	Name         string
	Machines     int
	TotalPower   float64
	AvgPower     float64
	Availability float64
	MTBF         float64
	YoungTau     float64
}

// ConfigTable instantiates each of the six paper configurations (at the
// given scale) and reports their derived parameters.
func ConfigTable(seed uint64, scale float64) []ConfigRow {
	if scale <= 0 {
		scale = 1
	}
	var rows []ConfigRow
	cc := checkpoint.DefaultConfig()
	for _, h := range []grid.Heterogeneity{grid.Hom, grid.Het} {
		for _, a := range []grid.Availability{grid.HighAvail, grid.MedAvail, grid.LowAvail} {
			gc := grid.DefaultConfig(h, a)
			gc.TotalPower *= scale
			g := grid.Build(gc, rng.Root(seed, "table-"+gc.Name()))
			rows = append(rows, ConfigRow{
				Name:         gc.Name(),
				Machines:     g.NumMachines(),
				TotalPower:   g.TotalPower(),
				AvgPower:     g.AvgPower(),
				Availability: a.Target(),
				MTBF:         gc.MTBF(),
				YoungTau:     checkpoint.YoungInterval(cc.MeanTransfer(), gc.MTBF()),
			})
		}
	}
	return rows
}

// WriteConfigTable renders T1.
func WriteConfigTable(w io.Writer, rows []ConfigRow) error {
	out := [][]string{{"config", "machines", "power", "avg-power", "avail", "MTBF(s)", "young-tau(s)"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%d", r.Machines),
			fmt.Sprintf("%.1f", r.TotalPower),
			fmt.Sprintf("%.2f", r.AvgPower),
			fmt.Sprintf("%.0f%%", r.Availability*100),
			fmt.Sprintf("%.0f", r.MTBF),
			fmt.Sprintf("%.0f", r.YoungTau),
		})
	}
	return writeAligned(w, out)
}

// WorkloadRow summarizes one workload (the paper's §4.2, experiment id T2):
// a (granularity, utilization, availability) point and its derived arrival
// rate.
type WorkloadRow struct {
	Granularity  float64
	TasksPerBag  int
	Availability grid.Availability
	Util         float64
	Lambda       float64
	// InterArrival is the mean time between BoT arrivals (1/λ).
	InterArrival float64
}

// WorkloadTable derives λ for every (granularity, intensity, availability)
// combination from Eq. 1 of the paper, at the given scale.
func WorkloadTable(scale float64) []WorkloadRow {
	if scale <= 0 {
		scale = 1
	}
	appSize := workload.DefaultAppSize * scale
	cc := checkpoint.DefaultConfig()
	var rows []WorkloadRow
	for _, a := range []grid.Availability{grid.HighAvail, grid.MedAvail, grid.LowAvail} {
		gc := grid.DefaultConfig(grid.Hom, a)
		gc.TotalPower *= scale
		eff := core.EffectivePower(gc, cc)
		for _, gran := range workload.DefaultGranularities {
			for _, u := range []float64{workload.LowIntensity, workload.MediumIntensity, workload.HighIntensity} {
				lambda := workload.LambdaForUtilization(u, appSize, eff)
				rows = append(rows, WorkloadRow{
					Granularity:  gran,
					TasksPerBag:  int(math.Ceil(appSize / gran)),
					Availability: a,
					Util:         u,
					Lambda:       lambda,
					InterArrival: 1 / lambda,
				})
			}
		}
	}
	return rows
}

// AnalysisRow is one line of the operational-analysis table (T3): derived
// capacity metrics plus the M/G/1 waiting-time prediction for the
// FCFS-Excl regime, which TestMG1PredictsFCFSExclWaiting validates against
// the simulator.
type AnalysisRow struct {
	Availability grid.Availability
	Util         float64
	Demand       float64
	Lambda       float64
	SatLambda    float64
	Headroom     float64 // SatLambda / Lambda
	PKWaitFCFS   float64 // M/G/1 prediction with S = D, cv² of bag demand
}

// AnalysisTable derives operational-law quantities for every
// (availability, intensity) pair at the given scale.
func AnalysisTable(scale float64) []AnalysisRow {
	if scale <= 0 {
		scale = 1
	}
	appSize := workload.DefaultAppSize * scale
	cc := checkpoint.DefaultConfig()
	// Bag total demand is a sum of many uniform tasks: nearly
	// deterministic, so use the area-bound cv² of a single bag, which is
	// tiny; 0 is the M/D/1 limit and a good approximation.
	const bagSCV = 0.01
	var rows []AnalysisRow
	for _, a := range []grid.Availability{grid.HighAvail, grid.MedAvail, grid.LowAvail} {
		gc := grid.DefaultConfig(grid.Hom, a)
		gc.TotalPower *= scale
		eff := core.EffectivePower(gc, cc)
		d := workload.Demand(appSize, eff)
		satL := analysis.SaturationLambda(d)
		for _, u := range []float64{workload.LowIntensity, workload.MediumIntensity, workload.HighIntensity} {
			l := workload.LambdaForUtilization(u, appSize, eff)
			wait, err := analysis.MG1Wait(l, d, bagSCV)
			if err != nil {
				wait = math.NaN()
			}
			rows = append(rows, AnalysisRow{
				Availability: a,
				Util:         u,
				Demand:       d,
				Lambda:       l,
				SatLambda:    satL,
				Headroom:     satL / l,
				PKWaitFCFS:   wait,
			})
		}
	}
	return rows
}

// WriteAnalysisTable renders T3.
func WriteAnalysisTable(w io.Writer, rows []AnalysisRow) error {
	out := [][]string{{"avail", "U", "D(s)", "lambda(1/s)", "lambda_sat(1/s)", "headroom", "PK-wait(s)"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Availability.String(),
			fmt.Sprintf("%.2f", r.Util),
			fmt.Sprintf("%.0f", r.Demand),
			fmt.Sprintf("%.3e", r.Lambda),
			fmt.Sprintf("%.3e", r.SatLambda),
			fmt.Sprintf("%.2f", r.Headroom),
			fmt.Sprintf("%.0f", r.PKWaitFCFS),
		})
	}
	return writeAligned(w, out)
}

// WriteWorkloadTable renders T2.
func WriteWorkloadTable(w io.Writer, rows []WorkloadRow) error {
	out := [][]string{{"granularity", "tasks/bag", "avail", "U", "lambda(1/s)", "inter-arrival(s)"}}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.0f", r.Granularity),
			fmt.Sprintf("%d", r.TasksPerBag),
			r.Availability.String(),
			fmt.Sprintf("%.2f", r.Util),
			fmt.Sprintf("%.3e", r.Lambda),
			fmt.Sprintf("%.0f", r.InterArrival),
		})
	}
	return writeAligned(w, out)
}
