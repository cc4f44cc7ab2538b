package journal

import (
	"math/rand"
	"testing"

	"botgrid/internal/core"
	"botgrid/internal/grid"
	"botgrid/internal/rng"
)

type benchClock struct{ t float64 }

func (c *benchClock) Now() float64 { return c.t }

// journalSink is the mutation sink the live service installs: each
// mutation becomes one record appended to j.
func journalSink(tb testing.TB, j *Journal) core.MutationSink {
	return func(m core.Mutation) {
		r := FromMutation(m)
		if _, err := j.Append(&r); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchScheduler rebuilds the mid-flight state of the core package's
// dispatch benchmark — 64 active bags of 32 tasks, 32 busy slots of 128 —
// through the exported live API, with the scheduler's mutation stream wired
// into sink.
func benchScheduler(tb testing.TB, p core.Policy, sink core.MutationSink) *core.Scheduler {
	tb.Helper()
	powers := make([]float64, 128)
	for i := range powers {
		powers[i] = 1
	}
	g := grid.NewCustom(grid.Config{}, powers)
	s := core.NewLiveScheduler(&benchClock{}, g, p, core.DefaultSchedConfig(), nil)
	s.SetMutationSink(sink)
	for i := 32; i < 128; i++ { // only 32 workers joined
		g.Machines[i].ForceFail(0)
		s.MachineFailed(g.Machines[i])
	}
	works := make([]float64, 32)
	for i := range works {
		works[i] = 100
	}
	for i := 0; i < 64; i++ {
		s.Submit(1000, works)
	}
	return s
}

// BenchmarkJournaledDispatchDecision is the journaled twin of the core
// package's BenchmarkDispatchDecision: per-free-machine bag selection cost
// with a fsync=off journal attached to the scheduler's mutation stream.
// SelectBag emits no mutation, so this times the decision alone;
// TestJournaledDispatchZeroAlloc also gates the journal append.
func BenchmarkJournaledDispatchDecision(b *testing.B) {
	for _, k := range core.Kinds {
		b.Run(k.String(), func(b *testing.B) {
			j, _, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncOff})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			p := core.NewPolicy(k, rng.Root(1, "policy"))
			s := benchScheduler(b, p, journalSink(b, j))
			thr := p.Threshold(core.DefaultSchedConfig().Threshold)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.SelectBag(s, thr) == nil {
					b.Fatal("no schedulable bag")
				}
			}
		})
	}
}

// TestJournaledDispatchZeroAlloc gates the journaled dispatch path at 0
// allocations per decision: every policy's SelectBag with a fsync=off
// journal attached, followed by the sink's FromMutation + Append of a
// fixed replica-start record on the warm journal.
func TestJournaledDispatchZeroAlloc(t *testing.T) {
	m := core.Mutation{Kind: core.MutReplicaStarted, Time: 12, Bag: 3, Task: 17, Machine: 5, Seq: 99}
	for _, k := range core.Kinds {
		t.Run(k.String(), func(t *testing.T) {
			j, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			sink := journalSink(t, j)
			p := core.NewPolicy(k, rng.Root(1, "policy"))
			s := benchScheduler(t, p, sink)
			thr := p.Threshold(core.DefaultSchedConfig().Threshold)
			for i := 0; i < 1000; i++ { // warm the journal's buffers
				sink(m)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if p.SelectBag(s, thr) == nil {
					t.Fatal("no schedulable bag")
				}
				sink(m)
			})
			if allocs != 0 {
				t.Fatalf("journaled dispatch allocates %.0f times per decision", allocs)
			}
		})
	}
}

// BenchmarkJournalAppend measures the append path: "off" and "batch"
// enqueue without waiting (batch durability is paid by the background
// syncer), "batch-wait" waits for the fsync after each record — the
// per-record durability ceiling.
func BenchmarkJournalAppend(b *testing.B) {
	for _, c := range []struct {
		name string
		mode FsyncMode
		wait bool
	}{
		{"off", FsyncOff, false},
		{"batch", FsyncBatch, false},
		{"batch-wait", FsyncBatch, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			j, _, err := Open(Options{Dir: b.TempDir(), Fsync: c.mode})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			rec := Record{Kind: KindWorkerSeen, Machine: 3}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Time = float64(i)
				lsn, err := j.Append(&rec)
				if err != nil {
					b.Fatal(err)
				}
				if c.wait {
					if err := j.WaitDurable(lsn); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay measures full crash recovery — snapshot-less
// Open over a ~101k-record log (500 bags of 100 tasks dispatched and
// completed), then the tail replayed through the scheduler — the cost a
// restarting daemon pays before serving. A fleet
// of 1 024 machines keeps that many replicas in flight: each machine takes
// one task, then every start waits for a running task to complete and
// reuses its machine. In "oldest-first" the oldest running task completes;
// in "shuffled" each window of 1 024 starts completes the live replicas in
// a seeded permutation, as closed-loop clients racing each other report
// them. It reports ns/record.
func BenchmarkRecoveryReplay(b *testing.B) {
	for _, c := range []struct {
		name    string
		shuffle bool
	}{{"oldest-first", false}, {"shuffled", true}} {
		b.Run(c.name, func(b *testing.B) {
			dir, total := recoveryLog(b, c.shuffle)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, rec, err := Open(Options{Dir: dir, Fsync: FsyncOff})
				if err != nil {
					b.Fatal(err)
				}
				if rec.Records != total {
					b.Fatalf("replayed %d of %d records", rec.Records, total)
				}
				recovered(b, rec, 1024)
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/record")
		})
	}
}

// recoveryLog writes BenchmarkRecoveryReplay's log into a fresh directory
// and returns it with its record count.
func recoveryLog(b *testing.B, shuffle bool) (string, int) {
	const (
		bags     = 500
		tasks    = 100
		machines = 1024
	)
	dir := b.TempDir()
	j, _, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		b.Fatal(err)
	}
	works := make([]float64, tasks)
	for i := range works {
		works[i] = 50
	}
	var now float64
	total := 0
	put := func(r Record) {
		now++
		r.Time = now
		if _, err := j.Append(&r); err != nil {
			b.Fatal(err)
		}
		total++
	}
	// Task k is task k%tasks of bag k/tasks and runs as replica k+1.
	var running [machines]int // machine -> the task it runs
	left := make([]int, bags) // bag -> tasks not yet completed
	complete := func(m int) {
		k := running[m]
		put(Record{Kind: KindTaskCompleted, Bag: k / tasks, Task: k % tasks, Seq: uint64(k + 1)})
		if left[k/tasks]--; left[k/tasks] == 0 {
			put(Record{Kind: KindBagCompleted, Bag: k / tasks})
		}
	}
	// order lists the machines in the order their replicas complete within
	// one window: as started, or a seeded permutation of that.
	order := make([]int, machines)
	rnd := rand.New(rand.NewSource(1))
	window := func() {
		for i := range order {
			order[i] = i
		}
		if shuffle {
			rnd.Shuffle(machines, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
	}
	for k := 0; k < bags*tasks; k++ {
		if k%tasks == 0 {
			put(Record{Kind: KindBagSubmitted, Bag: k / tasks, Granularity: 2000, Works: works})
			left[k/tasks] = tasks
		}
		m := k % machines
		if k >= machines {
			if m == 0 {
				window()
			}
			m = order[m]
			complete(m)
		}
		put(Record{Kind: KindReplicaStarted, Bag: k / tasks, Task: k % tasks,
			Machine: m, Seq: uint64(k + 1)})
		running[m] = k
	}
	window()
	for i := range order { // the last window starts at machine bags*tasks % machines
		complete(order[(i+bags*tasks)%machines])
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, total
}
