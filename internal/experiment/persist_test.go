package experiment

import (
	"bytes"
	"strings"
	"testing"

	"botgrid/internal/core"
)

// persistFixture runs one tiny figure sweep: enough structure (two
// policies, two granularities) to exercise every renderer.
func persistFixture(t *testing.T) map[string]*FigureResult {
	t.Helper()
	o := QuickOptions(17)
	o.NumBoTs = 20
	o.Warmup = 4
	o.MinReps, o.MaxReps = 2, 2
	o.Policies = []core.PolicyKind{core.FCFSShare, core.RR}
	o.Granularities = []float64{500, 1000}
	f, err := FigureByID("F1a")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunSweep([]Figure{f}, o)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// render produces every human-facing view of a result set, so equality of
// renders is equality of everything persistence must preserve.
func render(t *testing.T, results map[string]*FigureResult) string {
	t.Helper()
	var buf bytes.Buffer
	for _, id := range SortedIDs(results) {
		fr := results[id]
		for _, write := range []func(*FigureResult) error{
			func(fr *FigureResult) error { return fr.WriteTable(&buf) },
			func(fr *FigureResult) error { return fr.WriteChart(&buf) },
			func(fr *FigureResult) error { return fr.WriteSummary(&buf) },
			func(fr *FigureResult) error { return fr.WriteCSV(&buf) },
			func(fr *FigureResult) error { return fr.WriteJSON(&buf) },
			func(fr *FigureResult) error { return fr.WriteSVG(&buf) },
		} {
			if err := write(fr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.String()
}

// TestSaveLoadRoundTrip is the persistence contract: save → load must
// re-render byte-identically across every output format, and a second
// save of the loaded set must reproduce the original JSON document.
func TestSaveLoadRoundTrip(t *testing.T) {
	results := persistFixture(t)
	before := render(t, results)

	var doc bytes.Buffer
	if err := SaveResults(&doc, results); err != nil {
		t.Fatal(err)
	}
	saved := doc.String()

	loaded, err := LoadResults(strings.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(results) {
		t.Fatalf("loaded %d figures, want %d", len(loaded), len(results))
	}
	if after := render(t, loaded); after != before {
		t.Errorf("renders diverge after round trip:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}

	// Saving the loaded set again must be byte-identical too: persistence
	// is a fixed point, not merely render-equivalent.
	var doc2 bytes.Buffer
	if err := SaveResults(&doc2, loaded); err != nil {
		t.Fatal(err)
	}
	if doc2.String() != saved {
		t.Error("re-saved document differs from the original")
	}
}
