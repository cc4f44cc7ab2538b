package experiment

import (
	"fmt"
	"sort"

	"botgrid/internal/core"
	"botgrid/internal/stats"
)

// Cell is one (granularity, policy) point of a figure: the replicated mean
// turnaround with its confidence interval.
type Cell struct {
	// Granularity and Policy identify the point.
	Granularity float64
	Policy      core.PolicyKind
	// CI is the confidence interval over per-replication mean
	// turnarounds (completed bags only for saturated replications).
	CI stats.Interval
	// Reps is the number of replications run.
	Reps int
	// SaturatedReps counts replications that hit the horizon with
	// incomplete bags.
	SaturatedReps int
	// Saturated marks a cell where the majority of replications
	// saturated — the paper's "histogram bar over the frame".
	Saturated bool
	// MeanWaiting and MeanMakespan decompose the turnaround.
	MeanWaiting, MeanMakespan float64
	// ReplicaOverhead is replicas started per task completed, averaged
	// over replications — the price of knowledge-freeness.
	ReplicaOverhead float64
	// P50 and P95 are pooled turnaround percentiles across all
	// replications' measured bags (tail behaviour matters for
	// interactive desktop-grid users).
	P50, P95 float64
	// MeanSlowdown is the pooled mean of per-bag slowdowns (turnaround
	// over the bag's ideal makespan).
	MeanSlowdown float64
	// Fairness is Jain's index over pooled per-bag slowdowns: 1 means
	// every bag was slowed equally, lower values mean some users starve.
	Fairness float64
}

// Label renders the cell value as the figures do: the mean, or "SAT" when
// the configuration saturates.
func (c Cell) Label() string {
	if c.Saturated {
		return "SATURATED"
	}
	return fmt.Sprintf("%.0f ± %.0f", c.CI.Mean, c.CI.HalfWidth)
}

// FigureResult holds every cell of one figure panel.
type FigureResult struct {
	Figure  Figure
	Options Options
	// Cells is indexed [granularity][policy] following the options'
	// Granularities and Policies order.
	Cells [][]Cell
}

// Cell returns the cell for a granularity/policy pair.
func (fr *FigureResult) Cell(granularity float64, policy core.PolicyKind) (Cell, bool) {
	for _, row := range fr.Cells {
		for _, c := range row {
			if c.Granularity == granularity && c.Policy == policy {
				return c, true
			}
		}
	}
	return Cell{}, false
}

// WinnerStatus qualifies a WinnerDetailed result: a winner was found, or
// why none exists.
type WinnerStatus int

const (
	// WinnerFound means a non-saturated cell with the lowest mean
	// turnaround was identified.
	WinnerFound WinnerStatus = iota
	// WinnerAllSaturated means the granularity exists in the figure but
	// every policy's cell saturated, so no meaningful ranking exists.
	WinnerAllSaturated
	// WinnerUnknownGranularity means the figure holds no row for the
	// requested granularity.
	WinnerUnknownGranularity
)

// String names the status.
func (ws WinnerStatus) String() string {
	switch ws {
	case WinnerFound:
		return "found"
	case WinnerAllSaturated:
		return "all-saturated"
	case WinnerUnknownGranularity:
		return "unknown-granularity"
	default:
		return fmt.Sprintf("WinnerStatus(%d)", int(ws))
	}
}

// WinnerDetailed returns the policy with the lowest mean turnaround for a
// granularity among non-saturated cells, together with a status that
// distinguishes "no such granularity in this figure" from "every policy
// saturated". The returned kind is meaningful only for WinnerFound.
func (fr *FigureResult) WinnerDetailed(granularity float64) (core.PolicyKind, WinnerStatus) {
	var row []Cell
	for _, r := range fr.Cells {
		if len(r) > 0 && r[0].Granularity == granularity {
			row = r
			break
		}
	}
	if row == nil {
		return 0, WinnerUnknownGranularity
	}
	best := -1
	for i, c := range row {
		if c.Saturated {
			continue
		}
		if best < 0 || c.CI.Mean < row[best].CI.Mean {
			best = i
		}
	}
	if best < 0 {
		return 0, WinnerAllSaturated
	}
	return row[best].Policy, WinnerFound
}

// Winner returns the policy with the lowest mean turnaround for a
// granularity, preferring non-saturated cells. ok is false when no winner
// exists; use WinnerDetailed to distinguish an unknown granularity from a
// fully saturated row.
func (fr *FigureResult) Winner(granularity float64) (core.PolicyKind, bool) {
	k, st := fr.WinnerDetailed(granularity)
	return k, st == WinnerFound
}

// RunFigure reproduces one figure panel: for every granularity × policy it
// runs replications until the confidence target is met or MaxReps is
// reached. The panel's replication units run through the shared pool
// engine (see sweep.go); results are bit-identical at any
// Options.Parallelism. Cell errors are joined, so a multi-cell failure
// reports every broken cell; the partial result is still returned.
func RunFigure(f Figure, o Options) (*FigureResult, error) {
	rs, err := RunSweep([]Figure{f}, o)
	if rs == nil {
		return nil, err
	}
	return rs[f.ID], err
}

// SortedIDs returns the figure IDs of a result map in catalog order.
func SortedIDs(m map[string]*FigureResult) []string {
	ids := make([]string, 0, len(m))
	//botlint:sorted -- keys are collected then explicitly sorted below
	for id := range m {
		ids = append(ids, id)
	}
	order := make(map[string]int, len(Figures))
	for i, f := range Figures {
		order[f.ID] = i
	}
	sort.Slice(ids, func(i, j int) bool {
		oi, iOK := order[ids[i]]
		oj, jOK := order[ids[j]]
		if iOK && jOK {
			return oi < oj
		}
		if iOK != jOK {
			return iOK
		}
		return ids[i] < ids[j]
	})
	return ids
}
