package serve

import (
	"sort"
	"sync"
	"time"

	"botgrid/internal/stats"
)

// LatencyRecorder accumulates duration samples into a bounded ring and
// summarizes them as percentiles. It is safe for concurrent use and cheap
// enough for request hot paths: Observe is O(1), Summary copies and sorts
// the retained window. Both the server (decision latency) and the load
// generator (fetch round-trips) use it.
type LatencyRecorder struct {
	mu     sync.Mutex
	ring   []float64 // seconds
	idx    int
	filled bool
	count  int
	max    float64
}

// NewLatencyRecorder returns a recorder retaining the last window samples
// (default 4096 when window <= 0).
func NewLatencyRecorder(window int) *LatencyRecorder {
	if window <= 0 {
		window = 4096
	}
	return &LatencyRecorder{ring: make([]float64, window)}
}

// Observe records one sample.
func (l *LatencyRecorder) Observe(d time.Duration) {
	s := d.Seconds()
	l.mu.Lock()
	l.ring[l.idx] = s
	l.idx++
	if l.idx == len(l.ring) {
		l.idx, l.filled = 0, true
	}
	l.count++
	if s > l.max {
		l.max = s
	}
	l.mu.Unlock()
}

// Summary returns percentiles over the retained window; Count and Max
// cover every sample ever observed.
func (l *LatencyRecorder) Summary() LatencySummary { return MergeSummaries(l) }

// window copies out the retained samples plus lifetime count and max.
func (l *LatencyRecorder) window() (samples []float64, count int, max float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.idx
	if l.filled {
		n = len(l.ring)
	}
	samples = make([]float64, n)
	copy(samples, l.ring[:n])
	return samples, l.count, l.max
}

// MergeSummaries summarizes the union of several recorders' windows — the
// sharded server's per-shard decision-latency recorders merge into one
// wire summary. Percentiles are computed over the pooled samples; Count
// and Max cover every sample ever observed by any recorder. Each
// recorder's window is copied out under its own lock; the pooling and
// sort run outside all of them.
func MergeSummaries(recs ...*LatencyRecorder) LatencySummary {
	var pool []float64
	var out LatencySummary
	for _, l := range recs {
		if l == nil {
			continue
		}
		w, count, max := l.window()
		pool = append(pool, w...)
		out.Count += count
		if max > out.Max {
			out.Max = max
		}
	}
	if len(pool) == 0 {
		return out
	}
	sort.Float64s(pool)
	out.P50 = stats.PercentileOfSorted(pool, 0.50)
	out.P95 = stats.PercentileOfSorted(pool, 0.95)
	out.P99 = stats.PercentileOfSorted(pool, 0.99)
	return out
}

// counters are the server's monotonic event counters, mutated only with
// the owning shard's mutex held and exported (summed across shards) on
// /metrics.
type counters struct {
	Fetches       int `json:"fetches"`
	Assigned      int `json:"assigned"`
	NoWork        int `json:"no_work"`
	ReportsDone   int `json:"reports_done"`
	ReportsFailed int `json:"reports_failed"`
	StaleReports  int `json:"stale_reports"`
	Heartbeats    int `json:"heartbeats"`
	Submits       int `json:"submits"`
	LeaseExpiries int `json:"lease_expiries"`
}

// add accumulates another shard's counters into c.
func (c *counters) add(o counters) {
	c.Fetches += o.Fetches
	c.Assigned += o.Assigned
	c.NoWork += o.NoWork
	c.ReportsDone += o.ReportsDone
	c.ReportsFailed += o.ReportsFailed
	c.StaleReports += o.StaleReports
	c.Heartbeats += o.Heartbeats
	c.Submits += o.Submits
	c.LeaseExpiries += o.LeaseExpiries
}
