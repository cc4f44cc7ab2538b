package experiment

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"botgrid/internal/core"
	"botgrid/internal/stats"
)

func quickResult(t *testing.T) *FigureResult {
	t.Helper()
	o := QuickOptions(9)
	o.Granularities = []float64{1000, 25000}
	o.Policies = []core.PolicyKind{core.FCFSShare, core.RR}
	o.MinReps, o.MaxReps = 2, 2
	o.NumBoTs, o.Warmup = 25, 5
	f, _ := FigureByID("F1a")
	fr, err := RunFigure(f, o)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestWriteCSVRoundTrip(t *testing.T) {
	fr := quickResult(t)
	var buf bytes.Buffer
	if err := fr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 { // header + 2 granularities × 2 policies
		t.Fatalf("CSV has %d records, want 5", len(records))
	}
	col := map[string]int{}
	for i, h := range records[0] {
		col[h] = i
	}
	seen := map[string]bool{}
	for _, r := range records[1:] {
		if r[col["figure"]] != "F1a" {
			t.Fatalf("figure column = %q", r[col["figure"]])
		}
		seen[r[col["policy"]]+"/"+r[col["granularity"]]] = true
		if r[col["mean_turnaround"]] == "" || r[col["reps"]] != "2" {
			t.Fatalf("row incomplete: %v", r)
		}
	}
	for _, want := range []string{"FCFS-Share/1000", "RR/25000"} {
		if !seen[want] {
			t.Fatalf("missing CSV row %s", want)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	fr := quickResult(t)
	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID    string  `json:"id"`
		Grid  string  `json:"grid"`
		Util  float64 `json:"utilization"`
		Cells []struct {
			Policy         string  `json:"policy"`
			MeanTurnaround float64 `json:"mean_turnaround"`
			Saturated      bool    `json:"saturated"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.ID != "F1a" || doc.Util != 0.5 || !strings.HasPrefix(doc.Grid, "Hom-") {
		t.Fatalf("metadata wrong: %+v", doc)
	}
	if len(doc.Cells) != 4 {
		t.Fatalf("JSON has %d cells, want 4", len(doc.Cells))
	}
	for _, c := range doc.Cells {
		if !c.Saturated && c.MeanTurnaround <= 0 {
			t.Fatalf("cell %+v implausible", c)
		}
	}
}

func TestAblationTaskOrderQuick(t *testing.T) {
	o := QuickOptions(10)
	o.MinReps = 2
	o.NumBoTs, o.Warmup = 25, 5
	ar, err := AblationTaskOrder(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Rows) != 3 {
		t.Fatalf("task-order ablation has %d rows, want 3", len(ar.Rows))
	}
	var buf bytes.Buffer
	if err := ar.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "longest-first") {
		t.Fatal("table missing LPT row")
	}
}

func TestFigureSVG(t *testing.T) {
	fr := quickResult(t)
	var buf bytes.Buffer
	if err := fr.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "F1a", "FCFS-Share", "RR", "1000 s", "25000 s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure SVG missing %q", want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := stats.Percentile(xs, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := stats.Percentile(xs, 1.0); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	if got := stats.Percentile(xs, 0.0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if !math.IsNaN(stats.Percentile(nil, 0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("percentile mutated its input")
	}
}

func TestWinnerDetailed(t *testing.T) {
	mkCell := func(gran float64, pol core.PolicyKind, mean float64, sat bool) Cell {
		c := Cell{Granularity: gran, Policy: pol, Saturated: sat}
		c.CI.Mean = mean
		return c
	}
	fr := &FigureResult{Cells: [][]Cell{
		{
			mkCell(1000, core.FCFSShare, 500, false),
			mkCell(1000, core.RR, 400, false),
		},
		{
			mkCell(25000, core.FCFSShare, 0, true),
			mkCell(25000, core.RR, 0, true),
		},
	}}

	// A normal row: the lowest-mean non-saturated policy wins.
	if pol, st := fr.WinnerDetailed(1000); st != WinnerFound || pol != core.RR {
		t.Fatalf("WinnerDetailed(1000) = %v/%v, want RR/found", pol, st)
	}
	if pol, ok := fr.Winner(1000); !ok || pol != core.RR {
		t.Fatalf("Winner(1000) = %v/%v, want RR/true", pol, ok)
	}

	// Every cell saturated: status distinguishes this from a bad lookup.
	if _, st := fr.WinnerDetailed(25000); st != WinnerAllSaturated {
		t.Fatalf("WinnerDetailed(25000) status = %v, want all-saturated", st)
	}
	if _, ok := fr.Winner(25000); ok {
		t.Fatal("Winner(25000) should report no winner for a saturated row")
	}

	// Granularity absent from the figure.
	if _, st := fr.WinnerDetailed(777); st != WinnerUnknownGranularity {
		t.Fatalf("WinnerDetailed(777) status = %v, want unknown-granularity", st)
	}
	if _, ok := fr.Winner(777); ok {
		t.Fatal("Winner(777) should report no winner for an unknown granularity")
	}

	for st, want := range map[WinnerStatus]string{
		WinnerFound:              "found",
		WinnerAllSaturated:       "all-saturated",
		WinnerUnknownGranularity: "unknown-granularity",
	} {
		if st.String() != want {
			t.Fatalf("WinnerStatus(%d).String() = %q, want %q", int(st), st, want)
		}
	}
}

func TestCellPercentilesPopulated(t *testing.T) {
	fr := quickResult(t)
	for _, row := range fr.Cells {
		for _, c := range row {
			if c.Saturated {
				continue
			}
			if math.IsNaN(c.P50) || math.IsNaN(c.P95) {
				t.Fatalf("cell %v/%v has NaN percentiles", c.Granularity, c.Policy)
			}
			if c.P95 < c.P50 {
				t.Fatalf("p95 %v < p50 %v", c.P95, c.P50)
			}
		}
	}
}

func TestWriteSignificance(t *testing.T) {
	fr := quickResult(t)
	var buf bytes.Buffer
	if err := fr.WriteSignificance(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"granularity 1000", "granularity 25000", "FCFS-Share", "RR", "."} {
		if !strings.Contains(out, want) {
			t.Fatalf("significance matrix missing %q:\n%s", want, out)
		}
	}
	// Every comparison symbol is one of the defined ones.
	for _, line := range strings.Split(out, "\n") {
		for _, sym := range strings.Fields(line) {
			switch sym {
			case ".", "<", ">", "=", "S", "FCFS-Share", "RR":
			default:
				if !strings.HasPrefix(sym, "F") && !strings.Contains(sym, "granularity") &&
					!strings.Contains(sym, "1000") && !strings.Contains(sym, "25000") {
					t.Fatalf("unexpected token %q in matrix", sym)
				}
			}
		}
	}
}

func TestSaveLoadResultsRoundTrip(t *testing.T) {
	fr := quickResult(t)
	in := map[string]*FigureResult{"F1a": fr}
	var buf bytes.Buffer
	if err := SaveResults(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back["F1a"]
	if !ok {
		t.Fatal("figure lost in round trip")
	}
	if got.Figure.ID != "F1a" || len(got.Cells) != len(fr.Cells) {
		t.Fatalf("shape mismatch: %+v", got.Figure)
	}
	for gi := range fr.Cells {
		for pi := range fr.Cells[gi] {
			a, b := fr.Cells[gi][pi], got.Cells[gi][pi]
			if a.Policy != b.Policy || a.Granularity != b.Granularity {
				t.Fatalf("cell identity mismatch at %d/%d", gi, pi)
			}
			if a.CI.Mean != b.CI.Mean || a.Saturated != b.Saturated || a.P95 != b.P95 {
				t.Fatalf("cell values mismatch: %+v vs %+v", a, b)
			}
		}
	}
	// Loaded results render identically.
	var t1, t2 bytes.Buffer
	if err := fr.WriteTable(&t1); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteTable(&t2); err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Fatalf("rendered tables differ:\n%s\nvs\n%s", t1.String(), t2.String())
	}
	var svg bytes.Buffer
	if err := got.WriteSVG(&svg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Fatal("loaded result cannot render SVG")
	}
}

func TestLoadResultsRejectsGarbage(t *testing.T) {
	if _, err := LoadResults(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadResults(strings.NewReader(`{"F1a":{"options":{"policies":["Bogus"]}}}`)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestScoreboard(t *testing.T) {
	fr := quickResult(t)
	rows := Scoreboard(map[string]*FigureResult{"F1a": fr})
	if len(rows) != 2 {
		t.Fatalf("scoreboard has %d rows, want 2", len(rows))
	}
	totalWins := 0
	for _, r := range rows {
		totalWins += r.Wins
		if r.MeanRank < 1 || r.MeanRank > 2 {
			t.Fatalf("mean rank %v out of range", r.MeanRank)
		}
		if r.SmallGranWins+r.LargeGranWins != r.Wins {
			t.Fatalf("win split inconsistent: %+v", r)
		}
		if r.SignificantWins > r.Wins {
			t.Fatalf("significant wins exceed wins: %+v", r)
		}
	}
	// One winner per granularity row (none saturated at quick scale F1a).
	if totalWins != 2 {
		t.Fatalf("total wins %d, want 2 (one per granularity)", totalWins)
	}
	// Sorted by wins descending.
	if rows[0].Wins < rows[1].Wins {
		t.Fatal("scoreboard not sorted")
	}
	var buf bytes.Buffer
	if err := WriteScoreboard(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean-rank") {
		t.Fatal("scoreboard rendering incomplete")
	}
}

func TestAblationArchitectureQuick(t *testing.T) {
	o := QuickOptions(11)
	o.MinReps = 2
	o.NumBoTs, o.Warmup = 25, 5
	ar, err := AblationArchitecture(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Rows) != 4 {
		t.Fatalf("architecture study has %d rows, want 4", len(ar.Rows))
	}
	if ar.Rows[0].Label != "centralized (paper)" {
		t.Fatalf("first row %q", ar.Rows[0].Label)
	}
	var buf bytes.Buffer
	if err := ar.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "least-loaded") {
		t.Fatal("architecture table incomplete")
	}
}
