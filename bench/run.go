package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"botgrid/internal/stats"
)

// env is what a workload's set-up gets: the seed its inputs derive from,
// the frozen sizes, and — on a traced run — the tracer its decorators
// record spans into.
type env struct {
	seed   uint64
	nproc  int
	sz     sizes
	tr     *tracer
	spec   *benchSpec
	stderr io.Writer
}

// workload is one named traffic mix or simulation recipe.
type workload struct {
	name string
	// setup builds the system under test, ready for its warm-up segment.
	// With traced set it installs the bench's decorators around the
	// system's public seams.
	setup func(ctx context.Context, e *env, traced bool) (system, error)
}

// workloads is the registry, in BENCHMARK.json order. Later issues refer to
// these names.
var workloads = []*workload{
	{name: "sim-figures", setup: setupSimFigures},
	{name: "sim-churn", setup: setupSimChurn},
	{name: "sim-backlog", setup: setupSimBacklog},
	{name: "serve-wire", setup: setupServeWire},
	{name: "serve-durable", setup: setupServeDurable},
	{name: "serve-http", setup: setupServeHTTP},
	{name: "serve-recover", setup: setupServeRecover},
}

// system is one set-up instance of a workload.
type system interface {
	// segment does one segment's fixed work; k counts measured segments
	// from 0 and is warmUp for the untimed one that ends set-up. The same
	// (seed, k) always means the same inputs.
	segment(ctx context.Context, k int) (segResult, error)
	// finish runs the end-of-run correctness checks.
	finish(ctx context.Context) ([]check, error)
	// close releases everything set-up acquired: listeners, goroutines,
	// temp dirs. It is called exactly once.
	close() error
	// layers reports the per-layer metrics of a traced system after its
	// pass; ref holds the untraced reference pass's segments.
	layers(ctx context.Context, ref []segResult) (map[string]float64, error)
}

const warmUp = -1

// hooks let smoke_test.go watch and sabotage a run; both are nil outside
// tests.
var hooks struct {
	// listening is told the address of every listener the bench opens.
	listening func(addr string)
	// warmDigest may replace the digest of set-up i's warm-up segment.
	warmDigest func(i int, digest string) string
}

// segResult is what one segment measured.
type segResult struct {
	ops  float64       // operations completed (see README for each workload's op)
	wall time.Duration // time the operations took
	// allocPer divides the segment's allocated bytes for alloc_kb_per_op;
	// zero means ops. The simulator workloads allocate per replication
	// (the grid, the bags), whatever the event count of the seed.
	allocPer float64
	callsMs  []float64 // latency of every timed call, in ms
	// attempted and failed count operations for ops_failed_share.
	attempted, failed int64
	// digest is the sha256 of a simulation segment's results.
	digest string
	// heapPeak and allocated are filled in by runSegments: the largest
	// in-use heap sampled during the segment, and the bytes it allocated.
	heapPeak, allocated uint64
}

func (s segResult) rate() float64 { return s.ops / s.wall.Seconds() }

// runWorkload measures one workload: untraced for the end-to-end metrics,
// or traced plus a short untraced reference pass for the per-layer ones.
func runWorkload(ctx context.Context, w *workload, e *env) (*runResult, error) {
	res := &runResult{
		Workload: w.name,
		Seed:     e.seed,
		Trace:    e.tr != nil,
		Sizes:    e.sz,
		Metrics:  map[string]metricValue{},
	}
	var err error
	if e.tr == nil {
		err = measureEndToEnd(ctx, w, e, res)
	} else {
		err = measureLayers(ctx, w, e, res)
	}
	if err != nil {
		return nil, err
	}
	if err := res.seal(e.spec); err != nil {
		return nil, err
	}
	return res, nil
}

// measureEndToEnd sets the system up several times (setup_s is their
// median; the warm-up digests of a simulation must agree), keeps the last
// instance and runs the measured segments on it.
func measureEndToEnd(ctx context.Context, w *workload, e *env, res *runResult) (err error) {
	var sys system
	defer func() {
		if sys != nil {
			err = errors.Join(err, sys.close())
		}
	}()
	var setupS []float64
	warmDigest := ""
	for i := 0; i < e.sz.Setups; i++ {
		if sys != nil {
			err, sys = sys.close(), nil
			if err != nil {
				return err
			}
		}
		start := time.Now()
		// Not straight into sys: a set-up that failed has released what it
		// held, and the deferred close must not see it.
		built, err := w.setup(ctx, e, false)
		if err != nil {
			return err
		}
		sys = built
		warm, err := sys.segment(ctx, warmUp)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		res.Attempted += warm.attempted
		res.Failed += warm.failed
		if hooks.warmDigest != nil {
			warm.digest = hooks.warmDigest(i, warm.digest)
		}
		if i > 0 && warm.digest != warmDigest {
			res.Checks = append(res.Checks, check{"warmup-digest-repeats", false,
				fmt.Sprintf("set-up %d: %s, set-up 0: %s", i, warm.digest, warmDigest)})
		}
		warmDigest = warm.digest
	}
	if warmDigest != "" && len(res.Checks) == 0 {
		res.Checks = append(res.Checks, check{"warmup-digest-repeats", true,
			fmt.Sprintf("%d set-ups agree", e.sz.Setups)})
	}
	res.Metrics["setup_s"] = metricValue{Value: median(setupS), Segments: setupS}

	segs, err := runSegments(ctx, sys, e.sz.Segments)
	if err != nil {
		return err
	}
	checks, err := sys.finish(ctx)
	if err != nil {
		return err
	}
	res.Checks = append(res.Checks, checks...)
	endToEnd(res, segs)
	return nil
}

// endToEnd folds the segments into the end-to-end metrics: every rate and
// every percentile is computed per segment, and the median across segments
// is reported beside the raw per-segment values.
func endToEnd(res *runResult, segs []segResult) {
	var rate, p50, tail, heapMB, allocKB []float64
	samples := 0
	for i, s := range segs {
		res.Attempted += s.attempted
		res.Failed += s.failed
		if s.digest != "" {
			res.Digests = append(res.Digests, s.digest)
		}
		rate = append(rate, s.rate())
		p50 = append(p50, stats.Percentile(s.callsMs, 0.50))
		tail = append(tail, tailOf(s.callsMs))
		if i == 0 || len(s.callsMs) < samples {
			samples = len(s.callsMs)
		}
		heapMB = append(heapMB, float64(s.heapPeak)/(1<<20))
		per := s.allocPer
		if per == 0 {
			per = s.ops
		}
		allocKB = append(allocKB, float64(s.allocated)/1024/per)
	}
	res.Metrics["ops_per_s"] = metricValue{Value: median(rate), Segments: rate}
	res.Metrics["call_p50_ms"] = metricValue{Value: median(p50), Segments: p50, Samples: samples}
	res.Metrics["call_p90_ms"] = metricValue{Value: median(tail), Segments: tail, Samples: samples}
	res.Metrics["heap_peak_mb"] = metricValue{Value: median(heapMB), Segments: heapMB}
	res.Metrics["alloc_kb_per_op"] = metricValue{Value: median(allocKB), Segments: allocKB}
}

// tailOf is a segment's tail latency: the p90 when at least ten samples lie
// beyond it. A handful of replications supports no tail percentile — their
// slowest is one draw, not a tail — so the metric then repeats the median.
func tailOf(callsMs []float64) float64 {
	if len(callsMs) >= 100 {
		return stats.Percentile(callsMs, 0.90)
	}
	return stats.Percentile(callsMs, 0.50)
}

// runSegments runs n measured segments. Each starts from a collected heap,
// so garbage of one segment is not billed to the next and GC pacing starts
// equal; the heap is sampled while the segment runs for its peak.
func runSegments(ctx context.Context, sys system, n int) ([]segResult, error) {
	var segs []segResult
	for k := 0; k < n; k++ {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		runtime.GC()
		before := readMem()
		watch := watchHeap()
		seg, err := sys.segment(ctx, k)
		seg.heapPeak = watch.stop()
		seg.allocated = readMem().allocated - before.allocated
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", k, err)
		}
		if seg.ops <= 0 || seg.wall <= 0 {
			return nil, fmt.Errorf("segment %d measured nothing (%v ops in %v)", k, seg.ops, seg.wall)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// measureLayers is the traced run: one traced set-up and a short traced
// pass, the same pass again on an undecorated system for the overhead and
// for digest parity, then the workload's stand-alone layer probes.
func measureLayers(ctx context.Context, w *workload, e *env, res *runResult) error {
	pass := func(traced bool) (_ system, segs []segResult, err error) {
		sys, err := w.setup(ctx, e, traced)
		if err != nil {
			return nil, nil, err
		}
		defer func() { err = errors.Join(err, sys.close()) }()
		warm, err := sys.segment(ctx, warmUp)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += warm.attempted
		res.Failed += warm.failed
		segs, err = runSegments(ctx, sys, e.sz.TraceSegments)
		if err != nil {
			return nil, nil, err
		}
		checks, err := sys.finish(ctx)
		if err != nil {
			return nil, nil, err
		}
		if traced {
			res.Checks = append(res.Checks, checks...)
			ref := &runResult{Metrics: map[string]metricValue{}}
			endToEnd(ref, segs)
			res.Attempted += ref.Attempted
			res.Failed += ref.Failed
			res.Digests = ref.Digests
			res.Reference = ref.Metrics
		}
		return sys, segs, nil
	}
	sys, traced, err := pass(true)
	if err != nil {
		return err
	}
	_, ref, err := pass(false)
	if err != nil {
		return err
	}
	digestsAgree := true
	for i := range traced {
		res.Attempted += ref[i].attempted
		res.Failed += ref[i].failed
		digestsAgree = digestsAgree && traced[i].digest == ref[i].digest
	}
	if traced[0].digest != "" {
		res.Checks = append(res.Checks, check{"traced-digest-equals-untraced", digestsAgree, ""})
	}
	layer, err := sys.layers(ctx, ref)
	if err != nil {
		return err
	}
	layer["trace.overhead_share"] = 1 - medianRate(traced)/medianRate(ref)
	for name, v := range layer {
		res.Metrics[name] = metricValue{Value: v}
	}
	return nil
}

func medianRate(segs []segResult) float64 {
	var r []float64
	for _, s := range segs {
		r = append(r, s.rate())
	}
	return median(r)
}

// median returns the middle of xs (the mean of the middle two for an even
// count), NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mem is a cheap (no stop-the-world) reading of the allocator.
type mem struct {
	allocated uint64 // cumulative bytes allocated
	heapInuse uint64 // bytes in in-use heap spans: objects plus span slack
}

func readMem() mem {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return mem{allocated: s[0].Value.Uint64(), heapInuse: s[1].Value.Uint64() + s[2].Value.Uint64()}
}

// heapWatch samples the in-use heap while a segment runs: a replication's
// working set is gone again at the segment boundary, so boundaries alone
// would miss it.
type heapWatch struct {
	peak uint64 // the sampler's until done is closed
	quit chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	w := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			w.peak = max(w.peak, readMem().heapInuse)
			select {
			case <-w.quit:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// stop ends the sampling goroutine, waits for it, and returns the peak.
func (w *heapWatch) stop() uint64 {
	close(w.quit)
	<-w.done
	return w.peak
}
