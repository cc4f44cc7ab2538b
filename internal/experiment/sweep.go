package experiment

import (
	"errors"
	"fmt"
	"sync"

	"botgrid/internal/core"
	"botgrid/internal/stats"
)

// This file is the parallel sweep engine, the package's only code that
// runs and folds replications. A cell is a (figure × granularity × policy)
// point or one ablation variant; every (cell × replication) unit flows
// through one global work queue served by a pool of workers, each owning a
// warm core.Runner whose event arena and queue-tier capacities carry from
// one replication to the next via Engine.Reset — across cells and across
// figures, so a worker pays the allocator's growth cost once per sweep
// rather than once per cell.
//
// The hard requirement is that results are bit-identical at any
// parallelism. Per-replication seeds derive deterministically from the
// cell coordinates (Options.CellConfig), so a replication's Result does
// not depend on who runs it or when; what could diverge is the *adaptive
// stopping decision* — how many replications a cell runs before its
// confidence target is met. The engine therefore runs the CI procedure in
// deterministic waves: the first MinReps replications launch concurrently,
// and every continue/stop decision is made from the accumulator state of
// replications 0..k-1 folded in replication order, exactly as the old
// sequential loop evaluated it. Replications may land out of order (they
// buffer until contiguous) and may be launched speculatively beyond the
// decision frontier to keep the pipeline primed; a speculative replication
// that lands after the deterministic rule already stopped the cell is
// discarded and never touches the published Cell statistics.

// specWindow bounds how many replications a cell may have in flight beyond
// the deterministic decision frontier. The first wave is
// max(MinReps, specWindow) wide; afterwards at most one replication past
// the approved one is speculative. Discarded work per cell is bounded by
// this window.
const specWindow = 2

// sweepUnit is one replication of one cell — the unit of work the pool's
// queue carries.
type sweepUnit struct {
	cell *cellState
	rep  int
}

// cellState tracks one replicated cell — a figure's (granularity,
// policy) point or an ablation variant — through the deterministic wave
// procedure. All fields are guarded by the owning pool's mutex; the
// fold/decision logic itself is single-threaded by construction (whoever
// delivers a result folds under the lock).
type cellState struct {
	// label names the cell in error text.
	label string
	// run simulates replication rep on the worker's warm Runner.
	run func(r *core.Runner, rep int) (core.Result, error)
	// observe, when set, sees every folded result in replication order.
	observe func(core.Result)
	// out is the publication slot; it carries the cell's coordinates in
	// and is written exactly once more, by finalize or fail.
	out *Cell

	minReps, maxReps   int
	relErr, confidence float64

	// launched is the next replication index not yet enqueued; folded is
	// the next index not yet folded. buffered holds out-of-order results
	// until the fold frontier reaches them.
	launched int
	folded   int
	buffered map[int]core.Result
	// done marks a published (stopped, exhausted or failed) cell; any
	// result delivered afterwards is a speculative over-run and is
	// dropped on the floor.
	done bool
	err  error

	// Fold state, updated strictly in replication order so the floating-
	// point sequence matches a sequential run bit for bit.
	acc, waiting, makespan, overhead stats.Accumulator
	pooled, slowdowns                []float64
	reps, saturatedReps              int
}

// firstWave returns how many replications launch unconditionally.
func (c *cellState) firstWave() int {
	return min(c.maxReps, max(c.minReps, specWindow))
}

// fold incorporates one replication's result, mirroring the sequential
// per-replication bookkeeping exactly.
func (c *cellState) fold(res core.Result) {
	var w, m stats.Accumulator
	for _, b := range res.Bags {
		w.Add(b.Waiting)
		m.Add(b.Makespan)
		c.pooled = append(c.pooled, b.Turnaround)
		c.slowdowns = append(c.slowdowns, b.Slowdown)
	}
	if c.observe != nil {
		c.observe(res)
	}
	if res.Saturated {
		c.saturatedReps++
	}
	if len(res.Bags) > 0 {
		c.acc.Add(res.MeanTurnaround())
		c.waiting.Add(w.Mean())
		c.makespan.Add(m.Mean())
	}
	if res.TasksCompleted > 0 {
		c.overhead.Add(float64(res.ReplicasStarted) / float64(res.TasksCompleted))
	}
	c.reps++
}

// stopNow evaluates the adaptive stopping rule on the folded state: the
// confidence target is met, or the cell is majority-saturated and will
// never converge. Called only with folded >= minReps.
func (c *cellState) stopNow() bool {
	ci := c.acc.CI(c.confidence)
	if c.acc.N() >= 2 && ci.RelErr() <= c.relErr {
		return true
	}
	return c.saturatedReps*2 > c.reps
}

// offer delivers one replication's result. It buffers, folds everything
// contiguous, makes the deterministic continue/stop decisions, and returns
// which additional replications to enqueue and whether the cell just
// published. A result arriving after the cell is done (a speculative
// over-run past the stop point, or anything after a failure) is discarded.
func (c *cellState) offer(rep int, res core.Result) (launch []int, finished bool) {
	if c.done {
		return nil, false
	}
	c.buffered[rep] = res
	for {
		next, ok := c.buffered[c.folded]
		if !ok {
			break
		}
		delete(c.buffered, c.folded)
		c.fold(next)
		c.folded++
		// Decision point: with replications 0..folded-1 folded, does
		// replication `folded` run? Exhaustion and the stopping rule end
		// the cell; otherwise the frontier advances.
		if c.folded >= c.maxReps || (c.folded >= c.minReps && c.stopNow()) {
			c.finalize()
			return nil, true
		}
	}
	// Keep the pipeline primed: the replication just approved by the
	// decision above, plus up to specWindow-1 speculative ones past it.
	for target := min(c.maxReps, max(c.minReps, c.folded+specWindow)); c.launched < target; c.launched++ {
		launch = append(launch, c.launched)
	}
	return launch, false
}

// finalize computes the published Cell from the folded state — the same
// arithmetic, in the same order, as the sequential procedure.
func (c *cellState) finalize() {
	c.done = true
	c.buffered = nil
	cell := c.out
	cell.Reps = c.reps
	cell.SaturatedReps = c.saturatedReps
	cell.CI = c.acc.CI(c.confidence)
	cell.Saturated = c.saturatedReps*2 > c.reps
	cell.MeanWaiting = c.waiting.Mean()
	cell.MeanMakespan = c.makespan.Mean()
	cell.ReplicaOverhead = c.overhead.Mean()
	cell.P50 = stats.Percentile(c.pooled, 0.50)
	cell.P95 = stats.Percentile(c.pooled, 0.95)
	var sd stats.Accumulator
	sd.AddAll(c.slowdowns)
	cell.MeanSlowdown = sd.Mean()
	cell.Fairness = stats.JainIndex(c.slowdowns)
}

// fail publishes the cell in its partial state (coordinates and
// replication counts, no derived statistics) and records the first error.
func (c *cellState) fail(rep int, err error) {
	c.done = true
	c.buffered = nil
	c.err = fmt.Errorf("experiment: %s rep %d: %w", c.label, rep, err)
	c.out.Reps = c.reps
	c.out.SaturatedReps = c.saturatedReps
}

// sweepPool is the shared work queue and its termination state.
type sweepPool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []sweepUnit
	// open counts cells not yet published; the pool drains when it hits
	// zero, regardless of stale speculative units still queued.
	open int
}

// work is one worker's loop: pop a unit, simulate it on the worker's warm
// engine, deliver the result under the lock. The Runner is reused for
// every unit the worker touches — cells and figures alike — so arena and
// queue capacities stay warm across the whole sweep.
func (p *sweepPool) work() {
	var runner core.Runner
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && p.open > 0 {
			p.cond.Wait()
		}
		if p.open == 0 {
			p.mu.Unlock()
			return
		}
		u := p.queue[0]
		p.queue = p.queue[1:]
		if u.cell.done {
			// Stale speculative unit of an already-published cell.
			p.mu.Unlock()
			continue
		}
		p.mu.Unlock()

		res, err := u.cell.run(&runner, u.rep)

		p.mu.Lock()
		if err != nil {
			if !u.cell.done {
				u.cell.fail(u.rep, err)
				p.open--
			}
		} else {
			launch, finished := u.cell.offer(u.rep, res)
			for _, rep := range launch {
				p.queue = append(p.queue, sweepUnit{u.cell, rep})
			}
			if finished {
				p.open--
			}
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// runCells runs every cell to publication through one pool of at most
// parallelism workers. Results are bit-identical at any parallelism (see
// the file comment for the wave procedure). Cell errors are joined in
// cell order, so a multi-cell failure reports every broken cell
// deterministically; failed cells are published in partial form.
func runCells(cells []*cellState, parallelism int) error {
	p := &sweepPool{open: len(cells)}
	p.cond = sync.NewCond(&p.mu)
	for _, c := range cells {
		c.buffered = make(map[int]core.Result)
		c.launched = c.firstWave()
		for rep := 0; rep < c.launched; rep++ {
			p.queue = append(p.queue, sweepUnit{c, rep})
		}
	}

	workers := min(parallelism, len(p.queue))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	wg.Wait()

	var errs []error
	for _, c := range cells {
		if c.err != nil {
			errs = append(errs, c.err)
		}
	}
	return errors.Join(errs...)
}

// RunSweep reproduces several figure panels through one shared pool: all
// figures' cells feed a single work queue served by Options.Parallelism
// workers, each with a warm engine. Cell errors are joined (see runCells);
// the returned map still carries every figure, with failed cells published
// in partial form.
func RunSweep(figs []Figure, o Options) (map[string]*FigureResult, error) {
	o = o.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	out := make(map[string]*FigureResult, len(figs))
	var cells []*cellState
	for _, f := range figs {
		if _, dup := out[f.ID]; dup {
			return nil, fmt.Errorf("experiment: duplicate figure %s in sweep", f.ID)
		}
		fr := &FigureResult{Figure: f, Options: o}
		fr.Cells = make([][]Cell, len(o.Granularities))
		for gi, gran := range o.Granularities {
			fr.Cells[gi] = make([]Cell, len(o.Policies))
			for pi, pol := range o.Policies {
				fr.Cells[gi][pi] = Cell{Granularity: gran, Policy: pol}
				cells = append(cells, &cellState{
					label: fmt.Sprintf("%s gran=%g %s", f.ID, gran, pol),
					run: func(r *core.Runner, rep int) (core.Result, error) {
						return r.Run(o.CellConfig(f, gran, pol, rep))
					},
					out:        &fr.Cells[gi][pi],
					minReps:    o.MinReps,
					maxReps:    o.MaxReps,
					relErr:     o.RelErr,
					confidence: o.Confidence,
				})
			}
		}
		out[f.ID] = fr
	}
	return out, runCells(cells, o.Parallelism)
}
