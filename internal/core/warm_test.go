package core

import (
	"reflect"
	"sort"
	"testing"

	"botgrid/internal/checkpoint"
	"botgrid/internal/grid"
	"botgrid/internal/workload"
)

// A warm Runner keeps the grid, the scheduler's per-machine state, free
// stack and replica pool, and the checkpoint server's transfer pool from one
// replication to the next. The tests below hold it to the cold Run: every
// result of a warm sequence must equal, field for field, the result of Run
// on a fresh world.

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
// FastestMachineFirst, bit 7 checkpoint capacity.
func decodeWarmStep(op byte, fault bool) warmStep {
	return warmStep{
		het:      op&1 != 0,
		power:    warmPowers[op>>1&3],
		avail:    availMode(op >> 3 & 3),
		suspend:  op&(1<<5) != 0,
		fastest:  op&(1<<6) != 0,
		capacity: op&(1<<7) != 0,
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
	// Tasks of 20 000 reference-seconds outlast the Young interval on
	// every grid, so replicas checkpoint and failures cost work.
	const appSize = 120000
	cfg := RunConfig{
		Seed: seed,
		Grid: gc,
		Workload: workload.Config{
			Granularities: []float64{20000},
			AppSize:       appSize,
			Spread:        0.5,
			Lambda:        workload.LambdaForUtilization(0.7, appSize, EffectivePower(gc, cc)),
		},
		Policy:     p,
		Sched:      SchedConfig{SuspendOnFailure: w.suspend, FastestMachineFirst: w.fastest},
		Checkpoint: cc,
		NumBoTs:    8,
		Warmup:     1,
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
// error, to equal a cold Run of the same config. It returns the results.
func checkWarmSequence(t *testing.T, seed uint64, steps []warmStep) []Result {
	t.Helper()
	var warm Runner
	var out []Result
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
	}
	return out
}

// TestWarmRunnerMatchesColdRun runs hand-picked sequences: Hom and Het
// grids, machine counts that rise and fall, every availability source,
// SuspendOnFailure, FastestMachineFirst, a contended checkpoint server, and
// configs that fail Validate or Replay between good ones.
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
	}
	var total Result
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, r := range checkWarmSequence(t, uint64(i+1), c.steps) {
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
	if total.ReplicaFailures == 0 || total.Suspensions == 0 || total.CheckpointSaves == 0 ||
		total.CheckpointRetrieves == 0 || total.ReplicasKilled == 0 {
		t.Fatalf("the sequences exercise too little: %+v", total)
	}
}

// FuzzWarmRunnerVsRun decodes each byte of ops into a step (see
// decodeWarmStep); bit i of faults makes step i fail.
func FuzzWarmRunnerVsRun(f *testing.F) {
	f.Add(uint64(1), []byte{0x0b, 0x02, 0x1c, 0x35, 0x4e}, uint16(0))
	f.Add(uint64(7), []byte{0x19, 0xa2, 0x18, 0x67}, uint16(0b0110))
	f.Add(uint64(42), []byte{0xff, 0x00, 0x7a, 0x83}, uint16(0b1001))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte, faults uint16) {
		if len(ops) > 6 {
			ops = ops[:6] // bound the work per input
		}
		steps := make([]warmStep, len(ops))
		for i, op := range ops {
			steps[i] = decodeWarmStep(op, faults>>i&1 != 0)
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
