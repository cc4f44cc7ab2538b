package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"botgrid/internal/core"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
	"botgrid/internal/stats"
	"botgrid/internal/workload"
)

func TestFigureCatalog(t *testing.T) {
	if len(Figures) != 12 {
		t.Fatalf("catalog has %d figures, want 12 (8 paper panels + 4 MedAvail)", len(Figures))
	}
	seen := map[string]bool{}
	for _, f := range Figures {
		if seen[f.ID] {
			t.Fatalf("duplicate figure ID %s", f.ID)
		}
		seen[f.ID] = true
		got, err := FigureByID(f.ID)
		if err != nil || got.ID != f.ID {
			t.Fatalf("FigureByID(%s) failed: %v", f.ID, err)
		}
	}
	// The paper's eight panels pair Hom/Het with High/Low availability at
	// U ∈ {0.5, 0.9}.
	f1a, _ := FigureByID("F1a")
	if f1a.Het != grid.Hom || f1a.Avail != grid.HighAvail || f1a.Util != 0.5 {
		t.Fatalf("F1a misdefined: %+v", f1a)
	}
	f2d, _ := FigureByID("F2d")
	if f2d.Het != grid.Het || f2d.Avail != grid.LowAvail || f2d.Util != 0.9 {
		t.Fatalf("F2d misdefined: %+v", f2d)
	}
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("FigureByID accepted unknown ID")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Parallelism <= 0 || o.Threshold != 2 || o.Scale != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if len(o.Policies) != 5 || len(o.Granularities) != 4 {
		t.Fatalf("default policy/granularity sets wrong: %+v", o)
	}
	if err := (Options{NumBoTs: 0}).Validate(); err == nil {
		t.Fatal("NumBoTs=0 accepted")
	}
	if err := (Options{NumBoTs: 10, Warmup: 10}).Validate(); err == nil {
		t.Fatal("Warmup=NumBoTs accepted")
	}
	if err := (Options{NumBoTs: 10, Scale: 2}).Validate(); err == nil {
		t.Fatal("Scale>1 accepted")
	}
}

func TestCellSeedsIndependent(t *testing.T) {
	o := DefaultOptions(7)
	f1, _ := FigureByID("F1a")
	f2, _ := FigureByID("F2a")
	seeds := map[uint64]bool{}
	for _, f := range []Figure{f1, f2} {
		for _, g := range o.Granularities {
			for _, p := range o.Policies {
				for rep := 0; rep < 3; rep++ {
					s := o.CellConfig(f, g, p, rep).Seed
					if seeds[s] {
						t.Fatalf("seed collision for %s/%v/%v/%d", f.ID, g, p, rep)
					}
					seeds[s] = true
				}
			}
		}
	}
	// Identical coordinates give identical seeds.
	a := o.CellConfig(f1, 1000, core.RR, 0).Seed
	b := o.CellConfig(f1, 1000, core.RR, 0).Seed
	if a != b {
		t.Fatal("cell seeds are not reproducible")
	}
}

func TestScalePreservesRegimeRatios(t *testing.T) {
	// The paper's analysis hinges on tasks-per-bag vs machine count. The
	// 0.1 scale must preserve those ratios exactly for the Hom grid.
	full := DefaultOptions(1)
	quick := QuickOptions(1)
	f, _ := FigureByID("F1a")
	gFull := grid.Build(full.GridConfig(f), rng.New(99))
	gQuick := grid.Build(quick.GridConfig(f), rng.New(99))
	for _, gran := range full.Granularities {
		rFull := full.AppSize() / gran / float64(gFull.NumMachines())
		rQuick := quick.AppSize() / gran / float64(gQuick.NumMachines())
		if diff := rFull - rQuick; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("gran %v: ratio %v (full) vs %v (quick)", gran, rFull, rQuick)
		}
	}
}

func TestRunFigureQuick(t *testing.T) {
	o := QuickOptions(1)
	o.Granularities = []float64{1000, 25000}
	o.Policies = []core.PolicyKind{core.FCFSShare, core.RR}
	o.MinReps, o.MaxReps = 2, 2
	f, _ := FigureByID("F1a")
	fr, err := RunFigure(f, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Cells) != 2 || len(fr.Cells[0]) != 2 {
		t.Fatalf("cells shape %dx%d, want 2x2", len(fr.Cells), len(fr.Cells[0]))
	}
	for _, row := range fr.Cells {
		for _, c := range row {
			if c.Reps != 2 {
				t.Fatalf("cell %v/%v ran %d reps, want 2", c.Granularity, c.Policy, c.Reps)
			}
			if !c.Saturated && (c.CI.Mean <= 0) {
				t.Fatalf("cell %v/%v has nonpositive mean %v", c.Granularity, c.Policy, c.CI.Mean)
			}
		}
	}
	// Lookup helpers.
	if _, ok := fr.Cell(1000, core.RR); !ok {
		t.Fatal("Cell lookup failed")
	}
	if _, ok := fr.Cell(999, core.RR); ok {
		t.Fatal("Cell lookup found nonexistent cell")
	}
	if _, ok := fr.Winner(1000); !ok {
		t.Fatal("Winner failed on non-saturated row")
	}
}

func TestRunFigureDeterministic(t *testing.T) {
	o := QuickOptions(2)
	o.Granularities = []float64{5000}
	o.Policies = []core.PolicyKind{core.LongIdle}
	o.MinReps, o.MaxReps = 2, 2
	o.NumBoTs, o.Warmup = 30, 5
	f, _ := FigureByID("F2a")
	a, err := RunFigure(f, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure(f, o)
	if err != nil {
		t.Fatal(err)
	}
	ca := a.Cells[0][0]
	cb := b.Cells[0][0]
	if ca.CI.Mean != cb.CI.Mean || ca.SaturatedReps != cb.SaturatedReps {
		t.Fatalf("figure runs diverged: %v vs %v", ca.CI, cb.CI)
	}
}

func TestRenderers(t *testing.T) {
	o := QuickOptions(3)
	o.Granularities = []float64{1000}
	o.Policies = []core.PolicyKind{core.FCFSShare, core.RR}
	o.MinReps, o.MaxReps = 2, 2
	o.NumBoTs, o.Warmup = 30, 5
	f, _ := FigureByID("F1a")
	fr, err := RunFigure(f, o)
	if err != nil {
		t.Fatal(err)
	}
	var tbl, chart, sum bytes.Buffer
	if err := fr.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteChart(&chart); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{tbl.String(), chart.String()} {
		if !strings.Contains(s, "FCFS-Share") || !strings.Contains(s, "RR") {
			t.Fatalf("rendering missing policies:\n%s", s)
		}
	}
	if !strings.Contains(chart.String(), "#") {
		t.Fatal("chart has no bars")
	}
	if !strings.Contains(sum.String(), "winner=") {
		t.Fatalf("summary missing winner line:\n%s", sum.String())
	}
}

func TestConfigTable(t *testing.T) {
	rows := ConfigTable(1, 1)
	if len(rows) != 6 {
		t.Fatalf("config table has %d rows, want 6", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Machines <= 0 || r.TotalPower < 999 {
			t.Fatalf("row %+v implausible", r)
		}
	}
	for _, want := range []string{"Hom-HighAvail", "Het-LowAvail", "Hom-MedAvail"} {
		if !names[want] {
			t.Fatalf("missing config %s", want)
		}
	}
	var buf bytes.Buffer
	if err := WriteConfigTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Het-MedAvail") {
		t.Fatal("table rendering incomplete")
	}
}

func TestWorkloadTable(t *testing.T) {
	rows := WorkloadTable(1)
	// 3 availabilities × 4 granularities × 3 intensities.
	if len(rows) != 36 {
		t.Fatalf("workload table has %d rows, want 36", len(rows))
	}
	for _, r := range rows {
		if r.Lambda <= 0 || r.TasksPerBag <= 0 {
			t.Fatalf("row %+v implausible", r)
		}
		// λ must scale with utilization for fixed availability.
	}
	// Higher availability sustains a higher λ at the same U.
	var lamHigh, lamLow float64
	for _, r := range rows {
		if r.Granularity == 1000 && r.Util == 0.9 {
			switch r.Availability {
			case grid.HighAvail:
				lamHigh = r.Lambda
			case grid.LowAvail:
				lamLow = r.Lambda
			}
		}
	}
	if lamHigh <= lamLow {
		t.Fatalf("lambda ordering wrong: high=%v low=%v", lamHigh, lamLow)
	}
	var buf bytes.Buffer
	if err := WriteWorkloadTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tasks/bag") {
		t.Fatal("table rendering incomplete")
	}
}

func TestSortedIDs(t *testing.T) {
	m := map[string]*FigureResult{"F2a": nil, "F1a": nil, "FMd": nil}
	ids := SortedIDs(m)
	if len(ids) != 3 || ids[0] != "F1a" || ids[1] != "F2a" || ids[2] != "FMd" {
		t.Fatalf("SortedIDs = %v", ids)
	}
}

func TestAblationThresholdQuick(t *testing.T) {
	o := QuickOptions(5)
	o.MinReps = 2
	o.NumBoTs, o.Warmup = 30, 5
	ar, err := AblationThreshold(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Rows) != 4 {
		t.Fatalf("threshold ablation has %d rows, want 4", len(ar.Rows))
	}
	// Overhead must increase with the threshold.
	if !(ar.Rows[0].ReplicaOverhead <= ar.Rows[3].ReplicaOverhead) {
		t.Fatalf("replica overhead not increasing: %v vs %v",
			ar.Rows[0].ReplicaOverhead, ar.Rows[3].ReplicaOverhead)
	}
	var buf bytes.Buffer
	if err := ar.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "threshold=2") {
		t.Fatal("ablation table incomplete")
	}
}

// TestAblationTableUnmeasuredRow renders a row where no replication
// measured a bag (every one saturated before the warmup ended): both
// statistics columns print "-" rather than "NaN ± +Inf".
func TestAblationTableUnmeasuredRow(t *testing.T) {
	var none stats.Accumulator
	ar := &AblationResult{Name: "AX", Caption: "unmeasured", Rows: []AblationRow{
		{Label: "measured", CI: stats.Interval{Mean: 1234, HalfWidth: 56, N: 4}, ReplicaOverhead: 1.5, Reps: 4},
		{Label: "saturated", CI: none.CI(0.95), ReplicaOverhead: math.NaN(), SaturatedReps: 4, Reps: 4},
	}}
	var buf bytes.Buffer
	if err := ar.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got := strings.Fields(lines[2]); strings.Join(got, " ") != "measured 1234 ± 56 1.50 0/4" {
		t.Fatalf("measured row = %q", lines[2])
	}
	if got := strings.Fields(lines[3]); strings.Join(got, " ") != "saturated - - 4/4" {
		t.Fatalf("unmeasured row = %q", lines[3])
	}
}

func TestAblationDynRepQuick(t *testing.T) {
	o := QuickOptions(6)
	o.MinReps = 2
	o.NumBoTs, o.Warmup = 30, 5
	ar, err := AblationDynamicReplication(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(ar.Rows))
	}
	// Dynamic replication cannot start more replicas than static.
	if ar.Rows[1].ReplicaOverhead > ar.Rows[0].ReplicaOverhead+1e-9 {
		t.Fatalf("dynamic overhead %v exceeds static %v",
			ar.Rows[1].ReplicaOverhead, ar.Rows[0].ReplicaOverhead)
	}
}

func TestMixedWorkloadQuick(t *testing.T) {
	o := QuickOptions(7)
	o.MinReps = 2
	o.NumBoTs, o.Warmup = 40, 5
	o.Policies = []core.PolicyKind{core.FCFSShare, core.RR}
	rows, err := MixedWorkloadStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if len(r.PerGran) < 2 {
			t.Fatalf("policy %v saw only %d granularities", r.Policy, len(r.PerGran))
		}
	}
	var buf bytes.Buffer
	if err := WriteMixedTable(&buf, o, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gran=") {
		t.Fatal("mixed table incomplete")
	}
}

func TestWorkloadDefaultsExported(t *testing.T) {
	if workload.DefaultAppSize != 2.5e6 {
		t.Fatal("app size drifted from DESIGN.md")
	}
}

func TestAnalysisTable(t *testing.T) {
	rows := AnalysisTable(1)
	if len(rows) != 9 { // 3 availabilities × 3 intensities
		t.Fatalf("analysis table has %d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if r.Demand <= 0 || r.Lambda <= 0 || r.SatLambda <= r.Lambda {
			t.Fatalf("row %+v violates operational laws", r)
		}
		wantHeadroom := 1 / r.Util
		if d := r.Headroom - wantHeadroom; d > 1e-9 || d < -1e-9 {
			t.Fatalf("headroom %v, want %v", r.Headroom, wantHeadroom)
		}
		if r.PKWaitFCFS < 0 {
			t.Fatalf("negative PK wait: %+v", r)
		}
	}
	// Waiting grows with utilization for fixed availability.
	if !(rows[0].PKWaitFCFS < rows[1].PKWaitFCFS && rows[1].PKWaitFCFS < rows[2].PKWaitFCFS) {
		t.Fatal("PK wait not increasing in U")
	}
	var buf bytes.Buffer
	if err := WriteAnalysisTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lambda_sat") {
		t.Fatal("analysis table rendering incomplete")
	}
}
