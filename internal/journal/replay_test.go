package journal

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"botgrid/internal/core"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
)

// replayer recovers a State the way the service does: the snapshot's
// scheduler restored by core.RestoreLiveScheduler on an all-up grid, every
// scheduler record replayed through core.Scheduler.Replay, finished bags
// archived through OnBagDone. The two worker kinds are the service's to
// interpret (internal/serve replays them into its worker table and has
// its own tests for them); the replayer folds them with the oracle's
// rules, so only the scheduler's replay is under test here.
type replayer struct {
	sched *core.Scheduler
	grid  *grid.Grid
	rest  *State // Time, Workers, Completed and Service; Sched is unused
	clock fixedClock
}

// newReplayer restores st on a grid of the given size under policy pol.
func newReplayer(st *State, machines int, pol core.PolicyKind) (*replayer, error) {
	powers := make([]float64, machines)
	for i := range powers {
		powers[i] = 1
	}
	p := &replayer{rest: &State{
		Time:      st.Time,
		Sched:     &core.SchedulerSnapshot{},
		Workers:   slices.Clone(st.Workers),
		Completed: slices.Clone(st.Completed),
		Service:   st.Service,
	}}
	p.grid = grid.NewCustom(grid.Config{}, powers)
	s, err := core.RestoreLiveScheduler(&p.clock, p.grid,
		core.NewPolicy(pol, rng.New(7)), core.DefaultSchedConfig(), nil, st.Sched)
	if err != nil {
		return nil, err
	}
	s.OnBagDone = func(b *core.Bag) {
		p.rest.Completed = append(p.rest.Completed, CompletedBag{
			ID: b.ID, Arrival: b.Arrival, Granularity: b.Granularity, DoneAt: b.DoneAt, Tasks: len(b.Tasks),
		})
	}
	p.sched = s
	return p, nil
}

// apply replays one record.
func (p *replayer) apply(r *Record) error {
	if r.Kind == KindWorkerRegistered || r.Kind == KindWorkerSeen {
		return (*linearState)(p.rest).Apply(r)
	}
	m := r.Mutation()
	return p.sched.Replay(&m)
}

// state returns what the replayer recovered, as a snapshot would hold it.
func (p *replayer) state() State {
	c := *p.rest
	c.Workers = slices.Clone(c.Workers)
	c.Completed = slices.Clone(c.Completed)
	c.Sched = p.sched.SnapshotState()
	return c
}

// recovered replays rec's tail onto its snapshot through a replayer.
func recovered(t testing.TB, rec *Recovered, machines int) *replayer {
	t.Helper()
	p, err := newReplayer(rec.State, machines, core.FCFSShare)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(func(_ uint64, r *Record) error { return p.apply(r) }); err != nil {
		t.Fatal(err)
	}
	return p
}

// settled returns the oracle's state as the scheduler's replay holds it.
// The scheduler completes a bag with its last task, where the oracle
// waits for the BagCompleted record: a bag whose tasks are all done moves
// to the archive, done when its last task was.
func settled(st State) State {
	s := *st.Sched
	s.Bags = nil
	s.Replicas = slices.Clone(st.Sched.Replicas)
	st.Completed = slices.Clone(st.Completed)
	for _, b := range st.Sched.Bags {
		if !allDone(b) {
			s.Bags = append(s.Bags, b)
			continue
		}
		done := 0.0
		for _, t := range b.Tasks {
			done = max(done, t.DoneAt)
		}
		st.Completed = append(st.Completed, CompletedBag{
			ID: b.ID, Arrival: b.Arrival, Granularity: b.Granularity, DoneAt: done, Tasks: len(b.Tasks),
		})
		s.Completed++
	}
	st.Sched = &s
	return st
}

// plain lists st's live replicas by machine and makes its empty lists nil:
// the two replays build equal states through different slice histories.
func plain(st State) State {
	s := *st.Sched
	slices.SortFunc(s.Replicas, func(a, b core.ReplicaSnapshot) int { return cmp.Compare(a.Machine, b.Machine) })
	s.Bags = slices.Clone(s.Bags)
	for i := range s.Bags {
		if len(s.Bags[i].Pending) == 0 {
			s.Bags[i].Pending = nil
		}
	}
	if len(s.Bags) == 0 {
		s.Bags = nil
	}
	if len(s.Replicas) == 0 {
		s.Replicas = nil
	}
	if len(st.Workers) == 0 {
		st.Workers = nil
	}
	if len(st.Completed) == 0 {
		st.Completed = nil
	}
	st.Sched = &s
	return st
}

// streamGen writes journal streams that a live server could have
// produced, reading the oracle's State to pick each next record. Every
// choice goes through intn, so a fuzzer's bytes can steer it as well as a
// seeded PRNG. As the live scheduler does, it confirms a bag's completion
// in the record right after the bag's last task completes, at the same
// time, and registers workers on slots in order. With poison set it also
// emits records built from random fields, most of which contradict the
// state they land on.
type streamGen struct {
	intn     func(n int) int
	machines int
	poison   bool
	now      float64
	seq      uint64
	workers  int
}

// next returns the next record for the state st.
func (g *streamGen) next(st *State) Record {
	s := st.Sched
	for _, b := range s.Bags {
		if allDone(b) {
			return Record{Kind: KindBagCompleted, Time: g.now, Bag: b.ID}
		}
	}
	g.now += float64(g.intn(3)) // equal times are common in real logs
	if g.poison && g.intn(8) == 0 {
		return g.contradiction(st)
	}
	for {
		switch g.intn(11) {
		case 0:
			works := make([]float64, 1+g.intn(5))
			for i := range works {
				works[i] = float64(1 + g.intn(100))
			}
			return Record{Kind: KindBagSubmitted, Time: g.now, Bag: s.NextBagID, Granularity: 100, Works: works}
		case 1, 2, 3, 4:
			m, ok := g.freeMachine(s)
			if !ok {
				continue
			}
			bag, task, ok := g.startable(s)
			if !ok {
				continue
			}
			g.seq++
			return Record{Kind: KindReplicaStarted, Time: g.now, Bag: bag, Task: task, Machine: m,
				Seq: g.seq, Restart: g.intn(4) == 0}
		case 5, 6:
			if len(s.Replicas) == 0 {
				continue
			}
			rep := s.Replicas[g.intn(len(s.Replicas))]
			return Record{Kind: KindTaskCompleted, Time: g.now, Bag: rep.Bag, Task: rep.Task, Seq: rep.Seq}
		case 7:
			m := g.intn(g.machines)
			if len(s.Replicas) > 0 && g.intn(4) != 0 {
				m = s.Replicas[g.intn(len(s.Replicas))].Machine
			}
			return Record{Kind: KindMachineDown, Time: g.now, Machine: m}
		case 8:
			return Record{Kind: KindMachineUp, Time: g.now, Machine: g.intn(g.machines)}
		case 9:
			if len(st.Workers) > 0 && (len(st.Workers) == g.machines || g.intn(2) == 0) {
				w := st.Workers[g.intn(len(st.Workers))]
				return Record{Kind: KindWorkerRegistered, Time: g.now, Machine: w.Machine,
					Worker: w.ID, Power: float64(1 + g.intn(4))}
			}
			g.workers++
			return Record{Kind: KindWorkerRegistered, Time: g.now, Machine: len(st.Workers),
				Worker: fmt.Sprintf("w%d", g.workers), Power: 1}
		case 10:
			if len(st.Workers) == 0 {
				continue
			}
			return Record{Kind: KindWorkerSeen, Time: g.now, Machine: st.Workers[g.intn(len(st.Workers))].Machine}
		}
	}
}

// freeMachine picks a machine that runs no replica.
func (g *streamGen) freeMachine(s *core.SchedulerSnapshot) (int, bool) {
	for range 4 {
		m := g.intn(g.machines)
		busy := false
		for _, rep := range s.Replicas {
			busy = busy || rep.Machine == m
		}
		if !busy {
			return m, true
		}
	}
	return 0, false
}

// startable picks a task to start a replica of: usually the front of a
// bag's queue, sometimes a task deeper in it, sometimes a sibling of a
// running replica (a threshold above one).
func (g *streamGen) startable(s *core.SchedulerSnapshot) (bag, task int, ok bool) {
	if len(s.Replicas) > 0 && g.intn(3) == 0 {
		rep := s.Replicas[g.intn(len(s.Replicas))]
		return rep.Bag, rep.Task, true
	}
	if len(s.Bags) == 0 {
		return 0, 0, false
	}
	b := s.Bags[g.intn(len(s.Bags))]
	if len(b.Pending) == 0 {
		return 0, 0, false
	}
	i := 0
	if g.intn(4) == 0 {
		i = g.intn(len(b.Pending))
	}
	return b.ID, b.Pending[i], true
}

// contradiction builds a record from small random fields.
func (g *streamGen) contradiction(st *State) Record {
	r := Record{
		Kind:    Kind(g.intn(int(kindMax) + 2)), // includes the unknown kinds 0 and kindMax+1
		Time:    g.now,
		Bag:     g.intn(st.Sched.NextBagID+2) - 1,
		Task:    g.intn(8) - 1,
		Machine: g.intn(g.machines+1) - 1,
		Seq:     uint64(g.intn(int(g.seq) + 2)),
		Worker:  fmt.Sprintf("w%d", g.intn(g.workers+2)),
		Power:   1,
	}
	if r.Kind == KindBagSubmitted {
		r.Works = []float64{1, 2}
	}
	return r
}

func allDone(b core.BagSnapshot) bool {
	for _, t := range b.Tasks {
		if t.State != core.TaskDone {
			return false
		}
	}
	return true
}

// awaiting reports whether the oracle holds a bag whose completion the
// next record confirms: no snapshot is taken there, as none is live.
func awaiting(st *State) bool {
	return slices.ContainsFunc(st.Sched.Bags, allDone)
}

// replaySnapshot returns a fresh State decoded from a snapshot of st.
func replaySnapshot(t testing.TB, st *State) *State {
	t.Helper()
	_, out, err := DecodeSnapshot(oracleSnapshot(t, 1, st))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// outsideGrid reports whether r names a machine the scheduler's grid does
// not have. The oracle has no grid and accepts such a record; the
// scheduler must refuse it.
func outsideGrid(r *Record, machines int) bool {
	switch r.Kind {
	case KindReplicaStarted, KindMachineDown, KindMachineUp:
		return r.Machine < 0 || r.Machine >= machines
	}
	return false
}

// replayVsOracle drives the scheduler's replay and the linear oracle with
// the same generated records for as long as more(i) holds. At the first
// record from snapAt on where no completion awaits its confirmation, both
// restart from two decodings of a snapshot of the oracle's state, so the
// scheduler's replay continues a scheduler RestoreLiveScheduler built.
// After every record both must agree on accepting it and hold equal
// state; a refused record must leave the scheduler's state unchanged. It
// counts, into seen, the cases the generator must keep reaching.
func replayVsOracle(t testing.TB, g *streamGen, more func(i int) bool, snapAt int, seen map[string]int) {
	t.Helper()
	want := NewState()
	oracle := (*linearState)(want)
	got, err := newReplayer(want, g.machines, core.FCFSShare)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; more(i); i++ {
		if i >= snapAt && snapAt >= 0 && !awaiting(want) {
			snapAt = -1
			want = replaySnapshot(t, want)
			oracle = (*linearState)(want)
			if got, err = newReplayer(replaySnapshot(t, want), g.machines, core.FCFSShare); err != nil {
				t.Fatalf("record %d: restoring the oracle's snapshot: %v", i, err)
			}
			if len(want.Sched.Replicas) > 0 && len(want.Workers) > 0 {
				seen["snapshot with replicas and workers"]++
			}
		}
		r := g.next(want)
		note(want, &r, seen)
		before := got.state()
		gotErr := got.apply(&r)
		switch {
		case outsideGrid(&r, g.machines):
			if gotErr == nil {
				t.Fatalf("record %d %+v: replay accepted a machine outside the grid of %d", i, r, g.machines)
			}
			seen["rejected"]++
		case gotErr == nil:
			if wantErr := oracle.Apply(&r); wantErr != nil {
				t.Fatalf("record %d %+v: replay accepts it, oracle says %v", i, r, wantErr)
			}
		default:
			// The oracle does not refuse atomically (a start on a busy
			// machine moves its task to running first), so it judges a
			// copy of its state.
			if wantErr := (*linearState)(replaySnapshot(t, want)).Apply(&r); wantErr == nil {
				t.Fatalf("record %d %+v: replay says %v, oracle accepts it", i, r, gotErr)
			}
			seen["rejected"]++
		}
		a := plain(got.state())
		if gotErr != nil {
			if b := plain(before); !reflect.DeepEqual(a, b) {
				t.Fatalf("record %d %+v refused (%v) but changed the state\nbefore: %+v\n%+v\nafter:  %+v\n%+v",
					i, r, gotErr, b, *b.Sched, a, *a.Sched)
			}
		}
		if b := plain(settled(*want)); !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d %+v: states diverge\nreplay: %+v\n%+v\noracle: %+v\n%+v",
				i, r, a, *a.Sched, b, *b.Sched)
		}
	}
}

// note classifies r against the state it is about to be applied to.
func note(st *State, r *Record, seen map[string]int) {
	s := st.Sched
	live := func(bag, task int) (n int) {
		for _, rep := range s.Replicas {
			if rep.Bag == bag && rep.Task == task {
				n++
			}
		}
		return n
	}
	switch r.Kind {
	case KindReplicaStarted:
		if n := live(r.Bag, r.Task); n >= 2 {
			seen["third or later sibling"]++
		} else if n == 1 {
			seen["sibling"]++
		}
	case KindTaskCompleted:
		if live(r.Bag, r.Task) > 1 {
			seen["completion kills siblings"]++
		}
	case KindMachineDown:
		for i, rep := range s.Replicas {
			if rep.Machine != r.Machine {
				continue
			}
			if live(rep.Bag, rep.Task) == 1 {
				seen["resubmission at queue front"]++
			}
			for _, newer := range s.Replicas[i+1:] {
				if newer.Bag == rep.Bag && newer.Task == rep.Task {
					seen["older sibling lost"]++
					break
				}
			}
		}
	case KindBagCompleted:
		seen["bag completed"]++
	case KindWorkerRegistered:
		for _, w := range st.Workers {
			if w.ID == r.Worker {
				seen["worker re-registered"]++
			}
		}
	case KindWorkerSeen:
		seen["worker seen"]++
	}
}

// TestReplayMatchesOracle holds the scheduler's replay
// (core.Scheduler.Replay) to the linear state machine recovery used to
// run (replay_oracle_test.go) over seeded streams of valid records: both
// must accept every record and agree on the state after each one.
func TestReplayMatchesOracle(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &streamGen{intn: rng.Intn, machines: 2 + rng.Intn(12)}
		replayVsOracle(t, g, func(i int) bool { return i < 400 }, rng.Intn(200), seen)
	}
	t.Logf("cases reached: %v", seen)
	if seen["rejected"] != 0 {
		t.Fatalf("%d generated records were rejected; the generator is broken", seen["rejected"])
	}
	for _, c := range []string{
		"sibling", "third or later sibling", "completion kills siblings",
		"resubmission at queue front", "older sibling lost", "bag completed",
		"worker re-registered", "worker seen", "snapshot with replicas and workers",
	} {
		if seen[c] == 0 {
			t.Errorf("no stream reached case %q", c)
		}
	}
}

// TestOpenMatchesOracle holds recovery from disk to the linear state
// machine: a log of generated records, reopened and its tail replayed
// through the scheduler, recovers exactly the state the oracle reached.
// The stream is cut at its last record, which may leave a completion
// unconfirmed.
func TestOpenMatchesOracle(t *testing.T) {
	live := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &streamGen{intn: rng.Intn, machines: 2 + rng.Intn(12)}
		want := NewState()
		dir := t.TempDir()
		j, _, err := Open(Options{Dir: dir, Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for range 300 {
			r := g.next(want)
			if err := (*linearState)(want).Apply(&r); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Append(&r); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, rec, err := Open(Options{Dir: dir, Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Records != 300 {
			t.Fatalf("seed %d: Open found %d tail records, want 300", seed, rec.Records)
		}
		got := plain(recovered(t, rec, g.machines).state())
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if w := plain(settled(*want)); !reflect.DeepEqual(got, w) {
			t.Fatalf("seed %d: recovered state diverges\nreplay: %+v\n%+v\noracle: %+v\n%+v",
				seed, got, *got.Sched, w, *w.Sched)
		}
		live += len(want.Sched.Replicas)
	}
	if live == 0 {
		t.Fatal("no stream ended with a live replica")
	}
}

// FuzzReplayVsOracle is TestReplayMatchesOracle with the fuzzer choosing
// the stream, and with contradictory records mixed in: the scheduler's
// replay must reject exactly the records the oracle rejects (and those
// naming a machine outside its grid), leave its state unchanged when it
// does, and still agree with the oracle after each rejection. The first
// byte sets the grid size and the second where the snapshot restart
// happens; each later byte is one generator choice.
//
//	go test ./internal/journal/ -run='^$' -fuzz='^FuzzReplayVsOracle$'
func FuzzReplayVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1, 1, 2, 1, 0, 5, 3, 0, 0, 8, 0})
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		machines, snapAt := 1+int(data[0]%16), int(data[1]%64)
		script := data[2:]
		intn := func(n int) int {
			if len(script) == 0 {
				return 0
			}
			v := int(script[0]) % n
			script = script[1:]
			return v
		}
		g := &streamGen{intn: intn, machines: machines, poison: true}
		more := func(int) bool { return len(script) > 0 } // the stream ends with its bytes
		replayVsOracle(t, g, more, snapAt, map[string]int{})
	})
}

// TestReplayedSchedulerDecidesLikeRestored is the end-to-end check on
// recovery: after a generated stream, a scheduler that replayed it and
// left replay mode makes the same next 1 000 dispatch decisions, under
// every live policy, as a scheduler RestoreLiveScheduler builds from the
// oracle's state. Both are then driven by the same seeded submissions,
// completions, failures and repairs, and must emit the same mutations.
func TestReplayedSchedulerDecidesLikeRestored(t *testing.T) {
	for _, pol := range core.Kinds {
		t.Run(pol.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rnd := rand.New(rand.NewSource(seed))
				g := &streamGen{intn: rnd.Intn, machines: 4 + rnd.Intn(12)}
				want := NewState()
				got, err := newReplayer(want, g.machines, pol)
				if err != nil {
					t.Fatal(err)
				}
				for range 300 + rnd.Intn(50) {
					r := g.next(want)
					if err := (*linearState)(want).Apply(&r); err != nil {
						t.Fatal(err)
					}
					if err := got.apply(&r); err != nil {
						t.Fatal(err)
					}
				}
				ref, err := newReplayer(&State{Sched: settled(*want).Sched}, g.machines, pol)
				if err != nil {
					t.Fatalf("seed %d: restoring the oracle's state: %v", seed, err)
				}
				if err := got.sched.EndReplay(); err != nil {
					t.Fatal(err)
				}
				sameDecisions(t, seed, got, ref)
			}
		})
	}
}

// sameDecisions drives a and b identically until 1 000 replicas have
// started and requires them to emit the same mutations.
func sameDecisions(t *testing.T, seed int64, a, b *replayer) {
	t.Helper()
	var logs [2][]core.Mutation
	for i, p := range []*replayer{a, b} {
		p.sched.SetMutationSink(func(m core.Mutation) {
			m.Works = nil
			logs[i] = append(logs[i], m)
		})
	}
	rnd := rand.New(rand.NewSource(seed))
	started := 0
	for step := 0; started < 1000; step++ {
		if step > 100000 {
			t.Fatalf("seed %d: only %d replicas started in %d steps", seed, started, step)
		}
		now := float64(10000 + step)
		a.clock.t, b.clock.t = now, now
		act, pick := rnd.Intn(10), rnd.Int()
		works := []float64{float64(1 + rnd.Intn(50)), float64(1 + rnd.Intn(50)), float64(1 + rnd.Intn(50))}
		for _, p := range []*replayer{a, b} {
			drive(p, act, pick, works)
		}
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Fatalf("seed %d, step %d: decisions diverge\nreplayed: %+v\nrestored: %+v", seed, step, logs[0], logs[1])
		}
		for _, m := range logs[0] {
			if m.Kind == core.MutReplicaStarted {
				started++
			}
		}
		logs[0], logs[1] = logs[0][:0], logs[1][:0]
	}
}

// drive applies one step to p's scheduler: a submission, the completion
// of the pick-th running replica, or the failure or repair of the pick-th
// machine.
func drive(p *replayer, act, pick int, works []float64) {
	s, g := p.sched, p.grid
	m := g.Machines[pick%len(g.Machines)]
	switch {
	case act < 3:
		s.Submit(100, works)
	case act < 8:
		var busy []*core.Replica
		for _, m := range g.Machines {
			if r := s.ReplicaOn(m); r != nil {
				busy = append(busy, r)
			}
		}
		if len(busy) > 0 {
			s.CompleteReplica(busy[pick%len(busy)])
		}
	case m.Up():
		m.ForceFail(s.Now())
		s.MachineFailed(m)
	default:
		m.ForceRepair(s.Now())
		s.MachineRepaired(m)
	}
}

// TestReplaySteadyStateZeroAlloc pins the scheduler's replay step at 0
// allocations: once warm, completing one of 1 024 live replicas and
// starting a new one on the machine it freed allocates nothing, whether
// completions come oldest first or, as closed-loop clients deliver them,
// in a seeded random order. The bag's tasks come recycled from an earlier
// bag, as they do once replay has completed a bag, and completed tasks'
// replicas go back to the pool. AllocsPerRun floors its average, so each
// run is a whole window of steps: growing a table every few hundred
// records fails the gate as surely as once per record.
func TestReplaySteadyStateZeroAlloc(t *testing.T) {
	const live = 1024
	rnd := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		pick func(next int) int // the machine whose replica completes next
	}{
		{"oldest-first", func(next int) int { return next % live }},
		{"random", func(int) int { return rnd.Intn(live) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := newReplayer(NewState(), live, core.FCFSShare)
			if err != nil {
				t.Fatal(err)
			}
			works := make([]float64, 16*live)
			for i := range works {
				works[i] = 1
			}
			var r Record
			apply := func(kind Kind, bag, task, machine int) {
				r = Record{Kind: kind, Time: float64(task), Bag: bag, Task: task, Machine: machine, Seq: uint64(task + 1)}
				if kind == KindBagSubmitted {
					r.Works = works
				}
				if err := p.apply(&r); err != nil {
					t.Fatal(err)
				}
			}
			// A first bag runs to completion, leaving its tasks, each with
			// room for a replica, for the next bag.
			apply(KindBagSubmitted, 0, 0, 0)
			for task := range works {
				apply(KindReplicaStarted, 0, task, 0)
				apply(KindTaskCompleted, 0, task, 0)
			}
			apply(KindBagCompleted, 0, 0, 0)
			apply(KindBagSubmitted, 1, 0, 0)
			var running [live]int // machine -> the task it runs
			next := 0             // the next task to start
			step := func() {
				m := next
				if next >= live {
					m = c.pick(next)
					apply(KindTaskCompleted, 1, running[m], m)
				}
				apply(KindReplicaStarted, 1, next, m)
				running[m] = next
				next++
			}
			window := func() {
				for range 2 * live {
					step()
				}
			}
			for next < 3*live { // fill, then cycle the live set twice
				step()
			}
			if allocs := testing.AllocsPerRun(3, window); allocs != 0 {
				t.Fatalf("%d warm replay steps allocate %.0f times", 2*live, allocs)
			}
			if n := p.sched.RunningReplicas(); n != live {
				t.Fatalf("%d live replicas, want %d", n, live)
			}
		})
	}
}
