package serve

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
)

// leaseExpiries sums the lease-expiry counters of every shard.
func leaseExpiries(s *Server) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.partial(false).met.LeaseExpiries
	}
	return n
}

// TestLeaseExpiryOrderRepeatable: when many leases lapse together, the
// workers fail in slot order, so their resubmitted tasks re-enter the
// queue front — and reach the next workers — in the same order every run.
func TestLeaseExpiryOrderRepeatable(t *testing.T) {
	dispatch := func() []int {
		clk := &fakeClock{}
		s, err := NewServer(Config{MaxWorkers: 24, Clock: clk, Lease: 10 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sh := s.shards[0]
		works := make([]float64, 16)
		for i := range works {
			works[i] = 100
		}
		sh.submit(100, works)
		for i := 0; i < 12; i++ {
			if res, err := sh.fetch(fmt.Sprintf("old%02d", i), 0); err != nil || !res.Assigned {
				t.Fatalf("old%02d: %+v, %v", i, res, err)
			}
		}
		clk.advance(601)
		if n := sh.expireLeases(); n != 12 {
			t.Fatalf("%d leases expired, want 12", n)
		}
		tasks := make([]int, 12)
		for i := range tasks {
			res, err := sh.fetch(fmt.Sprintf("new%02d", i), 0)
			if err != nil || !res.Assigned {
				t.Fatalf("new%02d: %+v, %v", i, res, err)
			}
			tasks[i] = res.Task
		}
		return tasks
	}
	first := dispatch()
	for run := 1; run < 10; run++ {
		if got := dispatch(); !slices.Equal(got, first) {
			t.Fatalf("run %d dispatched the resubmitted tasks as %v, run 0 as %v", run, got, first)
		}
	}
}

// TestTickExpiresLeasesOnSchedule drives the periodic step by hand: tick
// expires lapsed leases once the sweep deadline has passed, and a tick
// before the next deadline expires nothing, however stale a lease is.
func TestTickExpiresLeasesOnSchedule(t *testing.T) {
	clk := &fakeClock{}
	// A 10-minute lease sweeps every 150 server-clock seconds from the
	// start at 0. The background loop's wall ticker has the same period,
	// so it never fires during the test.
	s, err := NewServer(Config{MaxWorkers: 2, Clock: clk, Lease: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	sh.submit(100, []float64{100, 100})
	if res, _ := sh.fetch("w1", 0); !res.Assigned {
		t.Fatal("w1 got no assignment")
	}
	clk.advance(100)
	if res, _ := sh.fetch("w2", 0); !res.Assigned {
		t.Fatal("w2 got no assignment")
	}

	clk.advance(501) // t=601: only w1 is past its lease
	s.tick(clk.Now())
	if n := leaseExpiries(s); n != 1 {
		t.Fatalf("%d expiries after the first due tick, want 1", n)
	}
	clk.advance(100) // t=701: w2 is past its lease too, but the next sweep is at 750
	s.tick(clk.Now())
	if n := leaseExpiries(s); n != 1 {
		t.Fatalf("%d expiries after a tick before the next sweep, want 1", n)
	}
	clk.advance(49)
	s.tick(clk.Now())
	if n := leaseExpiries(s); n != 2 {
		t.Fatalf("%d expiries after the next due tick, want 2", n)
	}
}

// stubLog is a Log whose snapshot cadence the test sets. It records the
// LSN of every WriteSnapshot call.
type stubLog struct {
	due atomic.Bool

	mu    sync.Mutex
	lsn   uint64
	snaps []uint64
}

func (l *stubLog) Append(*journal.Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lsn++
	return l.lsn, nil
}

func (l *stubLog) WaitDurable(uint64) error { return nil }

func (l *stubLog) Metrics() journal.Metrics { return journal.Metrics{} }

func (l *stubLog) WriteSnapshot(lsn uint64, _ *journal.State) error {
	l.mu.Lock()
	l.snaps = append(l.snaps, lsn)
	l.mu.Unlock()
	return nil
}

// SnapshotDue reports an armed snapshot once, so the background loop and
// the test's own tick cannot both take it.
func (l *stubLog) SnapshotDue() bool { return l.due.Swap(false) }

func (l *stubLog) Close() error { return nil }

func (l *stubLog) snapshots() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.snaps)
}

// TestTickSnapshotsWhenDue: tick writes one snapshot, at the LSN the
// captured state covers, when the log reports one due, and none otherwise.
func TestTickSnapshotsWhenDue(t *testing.T) {
	clk := &fakeClock{}
	log := &stubLog{}
	s, err := NewServer(Config{
		Clock:     clk,
		Lease:     -1,
		Log:       log,
		Recovered: &journal.Recovered{Fresh: true, State: journal.NewState()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	sh.submit(100, []float64{100, 100})

	s.tick(clk.Now())
	if got := log.snapshots(); len(got) != 0 {
		t.Fatalf("snapshots %v written while none was due", got)
	}
	log.due.Store(true)
	s.tick(clk.Now())
	sh.mu.Lock()
	_, lsn := sh.captureStateLocked()
	sh.mu.Unlock()
	if lsn == 0 {
		t.Fatal("submit journaled nothing")
	}
	if got := log.snapshots(); !slices.Equal(got, []uint64{lsn}) {
		t.Fatalf("snapshots %v after one due tick, want [%d]", got, lsn)
	}
}

// TestTickConcurrentWithLoop calls tick while the background loop runs
// every periodic job on short cadences, with traffic on every shard: the
// race detector checks that the two are serialized.
func TestTickConcurrentWithLoop(t *testing.T) {
	s, err := NewServer(Config{
		Shards:     2,
		Policy:     core.FairShare,
		MaxWorkers: 8,
		Lease:      40 * time.Millisecond,
		Rebalance:  10 * time.Millisecond,
		DataDir:    t.TempDir(),
		Fsync:      journal.FsyncOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		s.shards[i].submit(100, []float64{100, 100, 100})
	}
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("w%d", i)
			if _, err := s.routeWorker(id, true).fetch(id, 0); err != nil {
				t.Fatal(err)
			}
		}
		s.tick(s.clock.Now())
	}
}

// goroutinesIn counts goroutines with a stack frame whose function name
// contains frame.
func goroutinesIn(frame string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, frame) {
			count++
		}
	}
	return count
}

// awaitGoroutinesIn waits up to a few seconds for the count of goroutines
// in frame to reach want, and returns the last count: a new goroutine
// shows its frame only once it runs, and a stopped one may still be
// unwinding.
func awaitGoroutinesIn(frame string, want int) int {
	n := goroutinesIn(frame)
	for end := time.Now().Add(5 * time.Second); n != want && time.Now().Before(end); n = goroutinesIn(frame) {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestServerGoroutines: NewServer starts one goroutine when it has
// periodic work, whatever the shard count, and none when it has none;
// Close stops it.
func TestServerGoroutines(t *testing.T) {
	const frame = "serve.(*Server)."
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"4 shards, FairShare, journal, leases", Config{
			Shards:  4,
			Policy:  core.FairShare,
			DataDir: t.TempDir(),
			Fsync:   journal.FsyncOff,
			Lease:   10 * time.Second,
		}, 1},
		{"1 shard, in memory, no leases", Config{Lease: -1}, 0},
	} {
		if n := awaitGoroutinesIn(frame, 0); n != 0 {
			t.Fatalf("%s: %d server goroutines before NewServer", tc.name, n)
		}
		s, err := NewServer(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := awaitGoroutinesIn(frame, tc.want)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n != tc.want {
			t.Fatalf("%s: %d server goroutines, want %d", tc.name, n, tc.want)
		}
		if n := awaitGoroutinesIn(frame, 0); n != 0 {
			t.Fatalf("%s: %d server goroutines after Close", tc.name, n)
		}
	}
}
