package core

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"botgrid/internal/checkpoint"
	"botgrid/internal/grid"
	"botgrid/internal/workload"
)

// A warm Runner keeps the grid, the scheduler's per-machine state, free
// stack, replica pool and grid-sized bag and task pools, and the checkpoint
// server's transfer pool from one replication to the next. The tests below
// hold it to the cold Run: every result of a warm sequence must equal,
// field for field, the result of Run on a fresh world.

// availMode selects how machines come and go in a warm-Runner step.
type availMode int

const (
	availAlwaysUp availMode = iota
	availLow
	availMed
	availTrace // replay warmTrace instead of the stochastic processes
)

// warmStep is one replication of a warm-Runner sequence.
type warmStep struct {
	het      bool
	power    float64 // total grid power; the machine count follows it
	avail    availMode
	suspend  bool // SuspendOnFailure
	fastest  bool // FastestMachineFirst
	capacity bool // a checkpoint server with one transfer slot
	// overload runs the step at U = 3 with a horizon of twice the mean
	// arrival span, so it stops with bags still active and retire hands
	// their storage to the next step.
	overload bool
	// fine cuts bags into about 24 tasks instead of 6: more than most
	// grids of warmPowers have machines, so the pools cannot keep them.
	fine bool
	// fault makes the step fail: Replay rejects its trace when avail is
	// availTrace, Validate rejects its Warmup otherwise.
	fault bool
}

// warmPowers are the grid sizes a decoded step draws from, ordered so that
// consecutive steps grow and shrink the population. Hom grids have
// power/10 machines, Het grids about power/10; 60 keeps a Het grid above
// the four machines warmTrace touches.
var warmPowers = [4]float64{100, 250, 60, 150}

// decodeWarmStep maps one fuzz byte to a step: bit 0 Het, bits 1-2 the
// grid size, bits 3-4 the availability, bit 5 SuspendOnFailure, bit 6
// FastestMachineFirst, bit 7 checkpoint capacity. load's bit 0 overloads
// the step and bit 1 makes its bags fine-grained.
func decodeWarmStep(op, load byte, fault bool) warmStep {
	return warmStep{
		het:      op&1 != 0,
		power:    warmPowers[op>>1&3],
		avail:    availMode(op >> 3 & 3),
		suspend:  op&(1<<5) != 0,
		fastest:  op&(1<<6) != 0,
		capacity: op&(1<<7) != 0,
		overload: load&1 != 0,
		fine:     load&2 != 0,
		fault:    fault,
	}
}

// warmTrace fails and repairs machines 0-3 twice each, inside the span of
// a warmStep run.
func warmTrace() []grid.AvailEvent {
	var evs []grid.AvailEvent
	for round := 0; round < 2; round++ {
		base := 400 + 4000*float64(round)
		for m := 0; m < 4; m++ {
			at := base + 250*float64(m)
			evs = append(evs,
				grid.AvailEvent{Time: at, Machine: m, Up: false},
				grid.AvailEvent{Time: at + 1500, Machine: m, Up: true})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	return evs
}

// config builds the step's run. The policy and seed come from the caller,
// so one step shape runs under every policy across a sequence.
func (w warmStep) config(p PolicyKind, seed uint64) RunConfig {
	h, a := grid.Hom, grid.AlwaysUp
	if w.het {
		h = grid.Het
	}
	switch w.avail {
	case availLow:
		a = grid.LowAvail
	case availMed, availTrace:
		a = grid.MedAvail
	}
	gc := grid.DefaultConfig(h, a)
	gc.TotalPower = w.power
	cc := checkpoint.DefaultConfig()
	if w.capacity {
		cc.Capacity = 1
	}
	// Tasks of 20 000 reference-seconds (5 000 when fine) outlast the
	// Young interval on every grid, so replicas checkpoint and failures
	// cost work.
	const appSize = 120000
	gran, lambda := 20000.0, workload.LambdaForUtilization(0.7, appSize, EffectivePower(gc, cc))
	if w.fine {
		gran = 5000
	}
	if w.overload {
		// Past LambdaForUtilization's stable domain: invert Eq. 1.
		lambda = 3 / workload.Demand(appSize, EffectivePower(gc, cc))
	}
	cfg := RunConfig{
		Seed: seed,
		Grid: gc,
		Workload: workload.Config{
			Granularities: []float64{gran},
			AppSize:       appSize,
			Spread:        0.5,
			Lambda:        lambda,
		},
		Policy:     p,
		Sched:      SchedConfig{SuspendOnFailure: w.suspend, FastestMachineFirst: w.fastest},
		Checkpoint: cc,
		NumBoTs:    8,
		Warmup:     1,
	}
	if w.overload {
		cfg.HorizonFactor = 2
	}
	if w.avail == availTrace {
		cfg.AvailTrace = warmTrace()
	}
	if w.fault {
		if w.avail == availTrace {
			cfg.AvailTrace = append(cfg.AvailTrace, grid.AvailEvent{Time: 1e9, Machine: 1 << 20})
		} else {
			cfg.Warmup = cfg.NumBoTs
		}
	}
	return cfg
}

// checkWarmSequence runs steps on one Runner and requires each result, or
// error, to equal a cold Run of the same config. It returns the results
// and how many of the steps left the Runner carrying a task of a bag that
// was still active when its run ended. Such a task is not done, and every
// task of a completed bag is, until a Submit takes it.
func checkWarmSequence(t *testing.T, seed uint64, steps []warmStep) (out []Result, carriedLive int) {
	t.Helper()
	var warm Runner
	for i, w := range steps {
		cfg := w.config(Kinds[(seed+uint64(i))%uint64(len(Kinds))], seed+uint64(i))
		got, gotErr := warm.Run(cfg)
		want, wantErr := Run(cfg)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("step %d %+v: warm error %v, cold error %v", i, w, gotErr, wantErr)
		}
		if w.fault && gotErr == nil {
			t.Fatalf("step %d %+v: the faulty config ran", i, w)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %+v: the warm Runner diverged from a cold Run\nwarm: %+v\ncold: %+v", i, w, got, want)
		}
		out = append(out, want)
		if warm.sched != nil && slices.ContainsFunc(warm.sched.taskPool, func(tk *Task) bool { return tk.State != TaskDone }) {
			carriedLive++
		}
	}
	return out, carriedLive
}

// TestWarmRunnerMatchesColdRun runs hand-picked sequences: Hom and Het
// grids, machine counts that rise and fall, every availability source,
// SuspendOnFailure, FastestMachineFirst, a contended checkpoint server,
// configs that fail Validate or Replay between good ones, and overloaded
// runs that stop with bags active, followed by other bag sizes and smaller
// grids.
func TestWarmRunnerMatchesColdRun(t *testing.T) {
	hom := func(power float64, a availMode) warmStep { return warmStep{power: power, avail: a} }
	het := func(power float64, a availMode) warmStep { return warmStep{het: true, power: power, avail: a} }
	with := func(w warmStep, f func(*warmStep)) warmStep { f(&w); return w }
	cases := []struct {
		name  string
		steps []warmStep
	}{
		{"grow-and-shrink", []warmStep{
			hom(100, availLow), hom(250, availLow), hom(60, availLow), hom(150, availMed), hom(60, availAlwaysUp),
		}},
		{"hom-het-alternating", []warmStep{
			het(100, availMed), hom(100, availMed), het(250, availLow), hom(60, availLow), het(60, availMed),
		}},
		{"trace-replay", []warmStep{
			hom(100, availTrace), het(60, availLow), het(150, availTrace), hom(250, availTrace),
		}},
		{"scheduler-knobs", []warmStep{
			with(het(150, availLow), func(w *warmStep) { w.suspend = true }),
			with(het(100, availMed), func(w *warmStep) { w.fastest = true }),
			with(hom(250, availLow), func(w *warmStep) { w.suspend, w.fastest = true, true }),
			hom(60, availLow),
		}},
		{"checkpoint-capacity", []warmStep{
			with(hom(150, availLow), func(w *warmStep) { w.capacity = true }),
			hom(100, availLow),
			with(het(250, availMed), func(w *warmStep) { w.capacity, w.suspend = true, true }),
		}},
		{"failures-partway", []warmStep{
			het(250, availLow),
			with(hom(100, availTrace), func(w *warmStep) { w.fault = true }),
			hom(60, availMed),
			with(het(150, availLow), func(w *warmStep) { w.fault = true }),
			het(100, availTrace),
		}},
		{"overload-then-smaller", []warmStep{
			with(hom(250, availLow), func(w *warmStep) { w.overload = true }),
			with(hom(150, availMed), func(w *warmStep) { w.fine = true }),
			hom(100, availLow),
			with(het(250, availAlwaysUp), func(w *warmStep) { w.overload = true }),
			with(het(60, availLow), func(w *warmStep) { w.overload, w.fine = true, true }),
			with(hom(60, availMed), func(w *warmStep) { w.suspend = true }),
			hom(100, availTrace),
		}},
	}
	var total Result
	saturated, carriedLive := 0, 0
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, live := checkWarmSequence(t, uint64(i+1), c.steps)
			carriedLive += live
			for _, r := range res {
				if r.Saturated {
					saturated++
				}
				total.ReplicaFailures += r.ReplicaFailures
				total.Suspensions += r.Suspensions
				total.CheckpointSaves += r.CheckpointSaves
				total.CheckpointRetrieves += r.CheckpointRetrieves
				total.ReplicasKilled += r.ReplicasKilled
			}
		})
	}
	// The sequences only compare something if the runs exercise the
	// carried storage: replicas that fail, suspend, checkpoint and restart.
	// The overloaded runs must end saturated, and retire must hand some of
	// their active bags' storage to the next run.
	if total.ReplicaFailures == 0 || total.Suspensions == 0 || total.CheckpointSaves == 0 ||
		total.CheckpointRetrieves == 0 || total.ReplicasKilled == 0 || saturated == 0 || carriedLive == 0 {
		t.Fatalf("the sequences exercise too little: %+v, %d saturated, %d carried active bags", total, saturated, carriedLive)
	}
}

// FuzzWarmRunnerVsRun decodes each byte of ops into a step (see
// decodeWarmStep); bits 2i and 2i+1 of loads are step i's load bits, and
// bit i of faults makes step i fail.
func FuzzWarmRunnerVsRun(f *testing.F) {
	f.Add(uint64(1), []byte{0x0b, 0x02, 0x1c, 0x35, 0x4e}, uint16(0), uint16(0))
	f.Add(uint64(7), []byte{0x19, 0xa2, 0x18, 0x67}, uint16(0), uint16(0b0110))
	f.Add(uint64(42), []byte{0xff, 0x00, 0x7a, 0x83}, uint16(0), uint16(0b1001))
	// An overloaded 15-machine run that stops before any bag completes,
	// so retire pools active bags only; then 24-task bags on 6 machines,
	// an overloaded 6-machine run and a 25-machine run.
	f.Add(uint64(3), []byte{0x0e, 0x0c, 0x04, 0x0a}, uint16(0b00_01_10_01), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte, loads, faults uint16) {
		if len(ops) > 6 {
			ops = ops[:6] // bound the work per input
		}
		steps := make([]warmStep, len(ops))
		for i, op := range ops {
			steps[i] = decodeWarmStep(op, byte(loads>>(2*i)&3), faults>>i&1 != 0)
		}
		checkWarmSequence(t, seed, steps)
	})
}

// TestWarmRunnerAllocsIndependentOfGrid gates the warm world: once a Runner
// has run a grid, another run on it allocates for the workload only, so
// one small bag costs the same number of allocations on 1 000 machines as
// on 20 000. A Runner that rebuilt the machines, the per-machine state or
// the free stack would allocate tens of thousands of objects more on the
// larger grid.
func TestWarmRunnerAllocsIndependentOfGrid(t *testing.T) {
	// A few allocations may differ with the grid: none today, but the
	// bound tolerates a slice growth step that lands differently.
	const slack = 4
	allocs := func(machines int) float64 {
		gc := grid.DefaultConfig(grid.Hom, grid.AlwaysUp)
		gc.TotalPower = gc.HomPower * float64(machines)
		cfg := RunConfig{
			Seed: 3,
			Grid: gc,
			Workload: workload.Config{
				Granularities: []float64{1000},
				AppSize:       8000,
				Spread:        0.5,
				Lambda:        1e-3,
			},
			Policy:  FCFSShare,
			NumBoTs: 1,
		}
		var r Runner
		run := func() {
			res, err := r.Run(cfg)
			if err != nil || res.Completed != 1 {
				t.Fatalf("%d machines: completed %d, err %v", machines, res.Completed, err)
			}
		}
		run() // grow the world
		return testing.AllocsPerRun(5, run)
	}
	small, large := allocs(1000), allocs(20000)
	if large > small+slack || small > large+slack {
		t.Fatalf("a warm run allocates %.0f times on 1 000 machines but %.0f on 20 000", small, large)
	}
	t.Logf("allocations per warm run: %.0f (1 000 machines), %.0f (20 000 machines)", small, large)
}

// TestWarmRunnerAllocsIndependentOfBagSize gates the carried bag and task
// pools: once a warm Runner has run a bag that fits its grid, a repeat run
// allocates nothing for the bag's storage, so one 800-task bag on 1 000
// machines costs as many allocations as one 8-task bag. A Runner that
// rebuilt bags and tasks would allocate the 800 tasks' slab, their replica
// lists, the pending ring and the run heap again on every run.
func TestWarmRunnerAllocsIndependentOfBagSize(t *testing.T) {
	// The policy's index is built afresh by every run, and its heap of
	// bag entries, which compaction keeps below 64 entries or twice the
	// live ones, takes a few more growth steps for the long-running bag
	// (5 today). Per-task storage would cost hundreds.
	const slack = 8
	gc := grid.DefaultConfig(grid.Hom, grid.AlwaysUp)
	gc.TotalPower = gc.HomPower * 1000
	allocs := func(tasks int) float64 {
		// A trace bag, so the run draws no task works of its own.
		works := make([]float64, tasks)
		for i := range works {
			works[i] = 1000 + float64(i%7)*100
		}
		cfg := RunConfig{
			Seed:   3,
			Grid:   gc,
			Bots:   []*workload.BoT{{Granularity: 1000, TaskWork: works}},
			Policy: FCFSShare,
		}
		var r Runner
		run := func() {
			res, err := r.Run(cfg)
			if err != nil || res.Completed != 1 {
				t.Fatalf("%d tasks: completed %d, err %v", tasks, res.Completed, err)
			}
		}
		run() // grow the world and the pools
		return testing.AllocsPerRun(5, run)
	}
	small, large := allocs(8), allocs(800)
	if large > small+slack || small > large+slack {
		t.Fatalf("a warm run allocates %.0f times for an 8-task bag but %.0f for an 800-task bag", small, large)
	}
	t.Logf("allocations per warm run: %.0f (8 tasks), %.0f (800 tasks)", small, large)
}

// maxReplicas records the most replicas any task ran at once.
type maxReplicas struct {
	NopObserver
	most int
}

func (o *maxReplicas) ReplicaStarted(_ float64, r *Replica, _ bool) {
	o.most = max(o.most, len(r.Task.Replicas))
}

// TestWarmBagPoolBounded gates what the bag and task pools carry to the
// next replication: at most one task per machine, bags whose task lists
// have room for at most that many in all, and no task with more than
// maxPooledReplicas replica slots. It checks after a saturated FCFS-Excl
// run, whose thousands of active bags and wide replicated tails once made
// carried pools hold the largest live set of any run, after a run of bags
// larger than the grid, and after a run that leaves a pooled bag with
// more room than the pool has tasks.
func TestWarmBagPoolBounded(t *testing.T) {
	check := func(name string, r *Runner, machines int) {
		t.Helper()
		s := r.sched
		slots := 0
		for _, b := range s.bagPool {
			if len(b.Tasks) != 0 {
				t.Fatalf("%s: a pooled bag holds %d tasks", name, len(b.Tasks))
			}
			slots += cap(b.Tasks)
		}
		if slots != s.bagSlots {
			t.Fatalf("%s: the pooled bags have room for %d tasks, bagSlots says %d", name, slots, s.bagSlots)
		}
		if len(s.taskPool) > machines || slots > machines {
			t.Fatalf("%s: the pools carry %d tasks and room for %d in %d bags on %d machines",
				name, len(s.taskPool), slots, len(s.bagPool), machines)
		}
		for _, tk := range s.taskPool {
			if cap(tk.Replicas) > maxPooledReplicas {
				t.Fatalf("%s: a pooled task keeps %d replica slots", name, cap(tk.Replicas))
			}
		}
		t.Logf("%s: the pools carry %d tasks and %d bags on %d machines", name, len(s.taskPool), len(s.bagPool), machines)
	}

	// sim-backlog's recipe, shortened: ten-task bags at U = 4 on the
	// default 100-machine grid.
	gc := grid.DefaultConfig(grid.Hom, grid.HighAvail)
	var obs maxReplicas
	cfg := RunConfig{
		Seed: 7,
		Grid: gc,
		Workload: workload.Config{
			Granularities: []float64{1000},
			AppSize:       1e4,
			Spread:        0.5,
			Lambda:        4 / workload.Demand(1e4, EffectivePower(gc, checkpoint.DefaultConfig())),
		},
		Policy:   FCFSExcl,
		NumBoTs:  400,
		Observer: &obs,
	}
	var r Runner
	res, err := r.Run(cfg)
	if err != nil || !res.Saturated {
		t.Fatalf("the overloaded run: saturated %t, err %v", res.Saturated, err)
	}
	if obs.most <= maxPooledReplicas {
		t.Fatalf("the overloaded run ran at most %d replicas of a task: the replica cap goes unchecked", obs.most)
	}
	machines := len(r.grid.Machines)
	check("saturated FCFS-Excl", &r, machines)
	if len(r.sched.taskPool) == 0 {
		t.Fatal("saturated FCFS-Excl: the pools carry nothing")
	}

	// Bags of 50 tasks on 20 machines: none fits the pools once the last
	// arrival is in.
	gc = grid.DefaultConfig(grid.Hom, grid.MedAvail)
	gc.TotalPower = gc.HomPower * 20
	cfg = RunConfig{
		Seed: 7,
		Grid: gc,
		Workload: workload.Config{
			Granularities: []float64{1000},
			AppSize:       5e4,
			Spread:        0.5,
			Lambda:        workload.LambdaForUtilization(0.5, 5e4, EffectivePower(gc, checkpoint.DefaultConfig())),
		},
		Policy:  FCFSShare,
		NumBoTs: 12,
	}
	if res, err = r.Run(cfg); err != nil || res.Completed != cfg.NumBoTs {
		t.Fatalf("the large-bag run: completed %d of %d, err %v", res.Completed, cfg.NumBoTs, err)
	}
	check("bags larger than the grid", &r, len(r.grid.Machines))

	// Pooled bags can have more room than the tasks the pool keeps. The
	// 30-task bag completes before the 10-task one that arrived after it.
	// The last bag, too large for the 10-task bag on top of the pool,
	// takes that bag and 35 of the 40 pooled tasks, which leaves the
	// 30-task bag's storage with 5 tasks beside it.
	works := func(n int) []float64 { return make([]float64, n) }
	bots := []*workload.BoT{
		{Arrival: 0, Granularity: 1000, TaskWork: works(30)},
		{Arrival: 1, Granularity: 1000, TaskWork: works(10)},
		{Arrival: 1e5, Granularity: 1000, TaskWork: works(35)},
	}
	for _, b := range bots {
		for i := range b.TaskWork {
			b.TaskWork[i] = 1000
		}
	}
	gc = grid.DefaultConfig(grid.Hom, grid.AlwaysUp)
	gc.TotalPower = gc.HomPower * 20
	cfg = RunConfig{Seed: 7, Grid: gc, Bots: bots, Policy: FCFSShare}
	if res, err = r.Run(cfg); err != nil || res.Completed != len(bots) {
		t.Fatalf("the mixed-size run: completed %d of %d, err %v", res.Completed, len(bots), err)
	}
	check("bags wider than the pooled tasks", &r, len(r.grid.Machines))
}
