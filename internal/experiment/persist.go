package experiment

import (
	"encoding/json"
	"fmt"
	"io"

	"botgrid/internal/core"
	"botgrid/internal/stats"
)

// savedFigure is the on-disk form of a FigureResult: enough to re-render
// every table, chart and SVG without re-running the simulations.
type savedFigure struct {
	Figure  Figure       `json:"figure"`
	Options savedOptions `json:"options"`
	Cells   []cellExport `json:"cells"`
}

type savedOptions struct {
	Policies      []string  `json:"policies"`
	Granularities []float64 `json:"granularities"`
	Confidence    float64   `json:"confidence"`
	Scale         float64   `json:"scale"`
	NumBoTs       int       `json:"num_bots"`
	Warmup        int       `json:"warmup"`
	Seed          uint64    `json:"seed"`
}

// SaveResults serializes a result set (as returned by RunSweep) to JSON.
// Long sweeps persist their output so rendering, comparison and EXPERIMENTS
// bookkeeping do not require re-simulation.
func SaveResults(w io.Writer, results map[string]*FigureResult) error {
	doc := make(map[string]savedFigure, len(results))
	for _, id := range SortedIDs(results) {
		fr := results[id]
		o := fr.Options.withDefaults()
		sf := savedFigure{
			Figure: fr.Figure,
			Options: savedOptions{
				Granularities: o.Granularities,
				Confidence:    o.Confidence,
				Scale:         o.Scale,
				NumBoTs:       o.NumBoTs,
				Warmup:        o.Warmup,
				Seed:          o.Seed,
			},
			Cells: fr.export(),
		}
		for _, p := range o.Policies {
			sf.Options.Policies = append(sf.Options.Policies, p.String())
		}
		doc[id] = sf
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadResults reconstructs a result set saved with SaveResults. The
// reconstructed FigureResults render identically; they cannot be used to
// continue replication (per-replication samples are not persisted).
func LoadResults(r io.Reader) (map[string]*FigureResult, error) {
	var doc map[string]savedFigure
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("experiment: loading results: %w", err)
	}
	out := make(map[string]*FigureResult, len(doc))
	//botlint:sorted -- builds a map keyed by id; iteration order is immaterial
	for id, sf := range doc {
		fr := &FigureResult{Figure: sf.Figure}
		fr.Options = Options{
			Granularities: sf.Options.Granularities,
			Confidence:    sf.Options.Confidence,
			Scale:         sf.Options.Scale,
			NumBoTs:       sf.Options.NumBoTs,
			Warmup:        sf.Options.Warmup,
			Seed:          sf.Options.Seed,
		}
		for _, name := range sf.Options.Policies {
			k, err := core.ParsePolicy(name)
			if err != nil {
				return nil, fmt.Errorf("experiment: results for %s: %w", id, err)
			}
			fr.Options.Policies = append(fr.Options.Policies, k)
		}
		type key struct {
			gran float64
			pol  core.PolicyKind
		}
		cells := make(map[key]Cell)
		for _, ce := range sf.Cells {
			k, err := core.ParsePolicy(ce.Policy)
			if err != nil {
				return nil, fmt.Errorf("experiment: results for %s: %w", id, err)
			}
			cells[key{ce.Granularity, k}] = Cell{
				Granularity: ce.Granularity,
				Policy:      k,
				CI: stats.Interval{
					Mean:      ce.MeanTurnaround,
					HalfWidth: ce.CIHalfWidth,
					Level:     ce.Confidence,
					N:         ce.Reps,
				},
				Reps:            ce.Reps,
				SaturatedReps:   ce.SaturatedReps,
				Saturated:       ce.Saturated,
				MeanWaiting:     ce.MeanWaiting,
				MeanMakespan:    ce.MeanMakespan,
				ReplicaOverhead: ce.ReplicaOverhead,
				P50:             ce.P50,
				P95:             ce.P95,
				MeanSlowdown:    ce.MeanSlowdown,
				Fairness:        ce.Fairness,
			}
		}
		// Rebuild the [granularity][policy] grid in option order, the
		// layout every renderer expects.
		for _, g := range fr.Options.Granularities {
			row := make([]Cell, 0, len(fr.Options.Policies))
			for _, p := range fr.Options.Policies {
				row = append(row, cells[key{g, p}])
			}
			fr.Cells = append(fr.Cells, row)
		}
		out[id] = fr
	}
	return out, nil
}
