package experiment

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// cellExport is the serialized form of a Cell.
type cellExport struct {
	Figure          string  `json:"figure"`
	Granularity     float64 `json:"granularity"`
	Policy          string  `json:"policy"`
	MeanTurnaround  float64 `json:"mean_turnaround"`
	CIHalfWidth     float64 `json:"ci_half_width"`
	Confidence      float64 `json:"confidence"`
	Reps            int     `json:"reps"`
	SaturatedReps   int     `json:"saturated_reps"`
	Saturated       bool    `json:"saturated"`
	MeanWaiting     float64 `json:"mean_waiting"`
	MeanMakespan    float64 `json:"mean_makespan"`
	ReplicaOverhead float64 `json:"replicas_per_task"`
	P50             float64 `json:"p50_turnaround"`
	P95             float64 `json:"p95_turnaround"`
	MeanSlowdown    float64 `json:"mean_slowdown"`
	Fairness        float64 `json:"fairness_jain"`
}

func (fr *FigureResult) export() []cellExport {
	var out []cellExport
	for _, row := range fr.Cells {
		for _, c := range row {
			out = append(out, cellExport{
				Figure:          fr.Figure.ID,
				Granularity:     c.Granularity,
				Policy:          c.Policy.String(),
				MeanTurnaround:  c.CI.Mean,
				CIHalfWidth:     c.CI.HalfWidth,
				Confidence:      c.CI.Level,
				Reps:            c.Reps,
				SaturatedReps:   c.SaturatedReps,
				Saturated:       c.Saturated,
				MeanWaiting:     c.MeanWaiting,
				MeanMakespan:    c.MeanMakespan,
				ReplicaOverhead: c.ReplicaOverhead,
				P50:             c.P50,
				P95:             c.P95,
				MeanSlowdown:    c.MeanSlowdown,
				Fairness:        c.Fairness,
			})
		}
	}
	return out
}

// WriteCSV emits one row per cell with a header, ready for plotting tools.
func (fr *FigureResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"figure", "granularity", "policy", "mean_turnaround",
		"ci_half_width", "confidence", "reps", "saturated_reps", "saturated",
		"mean_waiting", "mean_makespan", "replicas_per_task",
		"p50_turnaround", "p95_turnaround", "mean_slowdown", "fairness_jain"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, c := range fr.export() {
		rec := []string{c.Figure, f(c.Granularity), c.Policy, f(c.MeanTurnaround),
			f(c.CIHalfWidth), f(c.Confidence), strconv.Itoa(c.Reps),
			strconv.Itoa(c.SaturatedReps), strconv.FormatBool(c.Saturated),
			f(c.MeanWaiting), f(c.MeanMakespan), f(c.ReplicaOverhead),
			f(c.P50), f(c.P95), f(c.MeanSlowdown), f(c.Fairness)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the panel as a single JSON document with the figure
// metadata and the cell list.
func (fr *FigureResult) WriteJSON(w io.Writer) error {
	doc := struct {
		ID      string       `json:"id"`
		Caption string       `json:"caption"`
		Grid    string       `json:"grid"`
		Util    float64      `json:"utilization"`
		Scale   float64      `json:"scale"`
		Cells   []cellExport `json:"cells"`
	}{
		ID:      fr.Figure.ID,
		Caption: fr.Figure.Caption,
		Grid:    fr.Options.GridConfig(fr.Figure).Name(),
		Util:    fr.Figure.Util,
		Scale:   fr.Options.Scale,
		Cells:   fr.export(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
