package main

// sizes are the frozen constants of a run. Work is fixed, not time: a
// segment is a count of replications, events or dispatches, so operation
// and event counts repeat exactly from run to run and from commit to
// commit. -seconds scales the counts linearly; the per-second constants
// below were chosen so that the five measured segments of a workload take
// about -seconds on the 2-core reference host (see README.md) — they size
// the load and are not claims.
type sizes struct {
	Size    string `json:"size"`
	Seconds int    `json:"seconds"`
	// Setups is how often a workload is set up in an untraced run
	// (setup_s is the median); Segments how many measured segments follow;
	// TraceSegments how many a traced run measures, once decorated and
	// once not.
	Setups        int `json:"setups"`
	Segments      int `json:"segments"`
	TraceSegments int `json:"trace_segments"`

	// sim-figures: 8 panels × 4 granularities × 5 policies × 2
	// replications per sweep, one sweep per segment.
	FigScale float64 `json:"fig_scale"`
	FigBags  int     `json:"fig_bags"`
	// sim-churn: replications per segment of the 100k-machine recipe.
	ChurnMachines int `json:"churn_machines"`
	ChurnBags     int `json:"churn_bags"`
	ChurnReps     int `json:"churn_reps"`
	// sim-backlog: bags per replication, seeds per policy per segment.
	BacklogBags  int `json:"backlog_bags"`
	BacklogSeeds int `json:"backlog_seeds"`

	// serve-*: worker identities per client connection, fetches per
	// batch, the primed queue, and dispatches per client per segment.
	Identities      int `json:"identities"`
	Group           int `json:"group"`
	PrimeBags       int `json:"prime_bags"`
	BagTasks        int `json:"bag_tasks"`
	WireDispatch    int `json:"wire_dispatch"`
	DurableDispatch int `json:"durable_dispatch"`
	HTTPDispatch    int `json:"http_dispatch"`
	// serve-recover: dispatches journaled into the crash image, and
	// recoveries of it per segment.
	ImageDispatch int `json:"image_dispatch"`
	RecoverReps   int `json:"recover_reps"`
}

func (s sizes) smoke() bool { return s.Size == "smoke" }

// warmShare is the warm-up segment's work as a share of a measured
// segment's: enough to register every worker identity, grow the event
// arena and fill the connection buffers, small enough that three set-ups
// stay cheap.
const warmShare = 0.25

func sizesFor(size string, seconds int) sizes {
	if size == "smoke" {
		return sizes{
			Size: size, Setups: 2, Segments: 2, TraceSegments: 1,
			FigScale: 0.05, FigBags: 8,
			ChurnMachines: 2000, ChurnBags: 6, ChurnReps: 1,
			BacklogBags: 200, BacklogSeeds: 1,
			Identities: 128, Group: 64, PrimeBags: 4, BagTasks: 100,
			WireDispatch: 1024, DurableDispatch: 256, HTTPDispatch: 128,
			ImageDispatch: 512, RecoverReps: 1,
		}
	}
	s := seconds
	return sizes{
		Size: size, Seconds: seconds, Setups: 3, Segments: 5, TraceSegments: 2,
		FigScale: 0.3, FigBags: 21 * s / 4,
		ChurnMachines: 100000, ChurnBags: max(1, 3*s/4), ChurnReps: 1,
		BacklogBags: 10000, BacklogSeeds: max(1, 2*s/5),
		Identities: 512, Group: 64, PrimeBags: 16, BagTasks: 500,
		WireDispatch:    groups(185000 * s / 5),
		DurableDispatch: groups(20000 * s / 5),
		HTTPDispatch:    groups(6200 * s / 5),
		ImageDispatch:   groups(15000 * s),
		RecoverReps:     1,
	}
}

// groups rounds a per-client dispatch count to whole batches of 64.
func groups(n int) int { return max(64, n/64*64) }
