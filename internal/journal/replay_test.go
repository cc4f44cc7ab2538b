package journal

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"botgrid/internal/core"
)

// streamGen writes journal streams that a live scheduler could have
// produced, reading the oracle's State to pick each next record. Every
// choice goes through intn, so a fuzzer's bytes can steer it as well as a
// seeded PRNG. With poison set it also emits records built from random
// fields, most of which contradict the state they land on.
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
	g.now += float64(g.intn(3)) // equal times are common in real logs
	if g.poison && g.intn(8) == 0 {
		return g.contradiction(st)
	}
	s := st.Sched
	for {
		switch g.intn(12) {
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
			for _, b := range s.Bags {
				if allDone(b) {
					return Record{Kind: KindBagCompleted, Time: g.now, Bag: b.ID}
				}
			}
		case 8:
			m := g.intn(g.machines)
			if len(s.Replicas) > 0 && g.intn(4) != 0 {
				m = s.Replicas[g.intn(len(s.Replicas))].Machine
			}
			return Record{Kind: KindMachineDown, Time: g.now, Machine: m}
		case 9:
			return Record{Kind: KindMachineUp, Time: g.now, Machine: g.intn(g.machines)}
		case 10:
			if len(st.Workers) > 0 && g.intn(2) == 0 {
				w := st.Workers[g.intn(len(st.Workers))]
				return Record{Kind: KindWorkerRegistered, Time: g.now, Machine: w.Machine,
					Worker: w.ID, Power: float64(1 + g.intn(4))}
			}
			m := g.intn(g.machines)
			for _, w := range st.Workers {
				if w.Machine == m {
					return Record{Kind: KindWorkerSeen, Time: g.now, Machine: m}
				}
			}
			g.workers++
			return Record{Kind: KindWorkerRegistered, Time: g.now, Machine: m,
				Worker: fmt.Sprintf("w%d", g.workers), Power: 1}
		case 11:
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

// exported returns st as its readers see it: Sched.Replicas published,
// Apply's private index cleared, for comparison.
func exported(st *State) State {
	st.publish()
	c := *st
	c.ix = nil
	return c
}

// replaySnapshot returns a fresh State decoded from a snapshot of st.
func replaySnapshot(t testing.TB, st *State) *State {
	t.Helper()
	c := *st
	c.Time = st.MaxTime
	img, err := EncodeSnapshot(1, &c)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// replayVsOracle drives the indexed State and the linear oracle with the
// same generated records for as long as more(i) holds. At record snapAt
// both restart from two decodings of a snapshot of the oracle's state, so
// the index is rebuilt from a non-empty State it did not build. After every
// record both must agree on accepting it and hold equal exported state. It
// counts, into seen, the cases the generator must keep reaching.
func replayVsOracle(t testing.TB, g *streamGen, more func(i int) bool, snapAt int, seen map[string]int) {
	t.Helper()
	got, want := NewState(), NewState()
	oracle := (*linearState)(want)
	for i := 0; more(i); i++ {
		if i == snapAt {
			got, want = replaySnapshot(t, want), replaySnapshot(t, want)
			oracle = (*linearState)(want)
			if len(want.Sched.Replicas) > 0 && len(want.Workers) > 0 {
				seen["snapshot with replicas and workers"]++
			}
		}
		r := g.next(want)
		note(want, &r, seen)
		gotErr, wantErr := got.Apply(&r), oracle.Apply(&r)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("record %d %+v: indexed Apply says %v, oracle says %v", i, r, gotErr, wantErr)
		}
		if gotErr != nil {
			seen["rejected"]++
		}
		if a, b := exported(got), exported(want); !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d %+v: states diverge\nindexed: %+v\n%+v\noracle:  %+v\n%+v",
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

// TestReplayMatchesOracle holds the indexed State.Apply to the linear
// state machine it replaced (replay_oracle_test.go) over seeded streams of
// valid records: both must accept every record and agree on the exported
// State after each one.
func TestReplayMatchesOracle(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &streamGen{intn: rng.Intn, machines: 2 + rng.Intn(12)}
		replayVsOracle(t, g, func(i int) bool { return i < 400 }, rng.Intn(200), seen)
	}
	t.Logf("cases reached: %v", seen)
	if seen["rejected"] != 0 {
		t.Fatalf("the oracle rejected %d generated records; the generator is broken", seen["rejected"])
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

// TestOpenMatchesOracle holds journal.Open to the linear state machine:
// a log of generated records, reopened, recovers exactly the State the
// oracle reached, live replicas in start order included, as Open returns
// it and before anything else reads it.
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
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got := *rec.State
		got.ix = nil
		if !reflect.DeepEqual(got, *want) {
			t.Fatalf("seed %d: recovered state diverges\nopened: %+v\n%+v\noracle: %+v\n%+v",
				seed, got, *got.Sched, *want, *want.Sched)
		}
		live += len(want.Sched.Replicas)
	}
	if live == 0 {
		t.Fatal("no stream ended with a live replica")
	}
}

// FuzzReplayVsOracle is TestReplayMatchesOracle with the fuzzer choosing
// the stream, and with contradictory records mixed in: the two state
// machines must reject exactly the same records and still agree after
// each rejection. The first byte sets the grid size and the second where
// the snapshot restart happens; each later byte is one generator choice.
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

// TestReplaySteadyStateZeroAlloc pins the replay step at 0 allocations:
// once warm, completing one of 1 024 live replicas and starting a new one
// on the machine it freed allocates nothing, whether completions come
// oldest first or, as closed-loop clients deliver them, in a seeded random
// order. AllocsPerRun floors its average, so each run is a whole window of
// steps: growing a table every few hundred records fails the gate as
// surely as once per record. The published list must then hold exactly
// the live replicas without hoarding capacity.
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
			st := NewState()
			works := make([]float64, 16*live)
			for i := range works {
				works[i] = 1
			}
			r := Record{Kind: KindBagSubmitted, Works: works}
			if err := st.Apply(&r); err != nil {
				t.Fatal(err)
			}
			var running [live]int // machine -> the task it runs
			next := 0             // the next task to start
			apply := func(kind Kind, task, machine int) {
				r = Record{Kind: kind, Time: float64(next), Task: task, Machine: machine, Seq: uint64(task + 1)}
				if err := st.Apply(&r); err != nil {
					t.Fatal(err)
				}
			}
			step := func() {
				m := next
				if next >= live {
					m = c.pick(next)
					apply(KindTaskCompleted, running[m], m)
				}
				apply(KindReplicaStarted, next, m)
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
			st.publish()
			if n, c := len(st.Sched.Replicas), cap(st.Sched.Replicas); n != live || c > 2*live {
				t.Fatalf("%d live replicas in an array of %d, want %d in at most %d", n, c, live, 2*live)
			}
		})
	}
}
