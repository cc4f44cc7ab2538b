package serve

// The completed-bag archive: a finished bag leaves the shard's live
// state the moment its last task completes, whether or not the shard
// journals, and its final status is served from the archive.

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// archiveServer starts a FCFS-Share server on clk: in memory when dir is
// empty, else journaled under dir. stop closes it.
func archiveServer(t *testing.T, shards int, dir string, clk *fakeClock) (*Server, *Client, func()) {
	t.Helper()
	s, err := NewServer(Config{
		MaxWorkers: 6,
		Lease:      -1,
		Clock:      clk,
		Shards:     shards,
		DataDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	stop := func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("closing server: %v", err)
		}
	}
	return s, NewClient(ts.URL), stop
}

// driveToCompletion runs one fixed fake-clock sequence of submits,
// fetches, done reports and one failure report until every bag has
// finished. It depends only on the scheduler's decisions, so every
// server built with the same Config apart from DataDir sees the same
// calls.
func driveToCompletion(t *testing.T, c *Client, clk *fakeClock) {
	t.Helper()
	bags := [][]float64{{100, 200, 300}, {50}, {400, 100, 100, 200, 50}}
	for _, works := range bags {
		if _, err := c.Submit(10, works); err != nil {
			t.Fatal(err)
		}
		clk.advance(3)
	}
	workers := []string{"w0", "w1", "w2", "w3", "w4", "w5"}
	reports := 0
	for round := 0; ; round++ {
		if round == 2 {
			if _, err := c.Submit(20, []float64{70, 80}); err != nil {
				t.Fatal(err)
			}
			bags = append(bags, nil)
		}
		if st := mustStats(t, c); st.BagsCompleted == len(bags) {
			return
		} else if round == 50 {
			t.Fatalf("not drained after %d rounds: %+v", round, st)
		}
		for _, w := range workers {
			r := mustFetch(t, c, w)
			if !r.Assigned {
				continue
			}
			clk.advance(1)
			status := StatusDone
			if reports++; reports == 4 {
				status = StatusFailed
			}
			mustReport(t, c, w, r.Assignment.Replica, status)
		}
	}
}

// pollStatuses reads /v1/stats and every listed bag in a loop until the
// returned stop is called, so the race detector sees archive writes
// against status reads. Reads change no state.
func pollStatuses(c *Client) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if st, err := c.Stats(); err == nil {
				for _, b := range st.Bags {
					c.Bag(b.Bag)
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// archivedStatuses checks that no shard keeps a live bag and returns the
// /v1/stats bag list after checking that GET /v1/bags/{id} agrees with it.
func archivedStatuses(t *testing.T, s *Server, c *Client) []BagStatus {
	t.Helper()
	for _, sh := range s.shards {
		sh.mu.Lock()
		live := len(sh.sched.Bags())
		sh.mu.Unlock()
		if live != 0 {
			t.Fatalf("shard %d keeps %d finished bags live", sh.idx, live)
		}
	}
	st := mustStats(t, c)
	for _, want := range st.Bags {
		got, err := c.Bag(want.Bag)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || !got.Completed {
			t.Fatalf("GET bag %d = %+v, stats list %+v", want.Bag, got, want)
		}
	}
	return st.Bags
}

// TestCompletedBagsArchivedInEveryMode is a differential test over the
// two shard modes: the same sequence drives an in-memory and a journaled
// server to the end of every bag. Both must have dropped every finished
// bag from live state and must serve identical statuses, and the
// journaled one must serve them again after a restart. Status reads run
// concurrently with the sequence throughout.
func TestCompletedBagsArchivedInEveryMode(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clk := &fakeClock{}
			s, c, stop := archiveServer(t, shards, "", clk)
			stopPoll := pollStatuses(c)
			driveToCompletion(t, c, clk)
			stopPoll()
			mem := archivedStatuses(t, s, c)
			stop()
			if len(mem) != 4 {
				t.Fatalf("in memory: %d bags, want 4: %+v", len(mem), mem)
			}

			dir := t.TempDir()
			clk = &fakeClock{}
			s, c, stop = archiveServer(t, shards, dir, clk)
			stopPoll = pollStatuses(c)
			driveToCompletion(t, c, clk)
			stopPoll()
			if got := archivedStatuses(t, s, c); !slices.Equal(got, mem) {
				t.Fatalf("journaled statuses\n%+v\nin memory\n%+v", got, mem)
			}
			stop()

			s, c, stop = archiveServer(t, shards, dir, clk)
			defer stop()
			if got := archivedStatuses(t, s, c); !slices.Equal(got, mem) {
				t.Fatalf("statuses after reopen\n%+v\nbefore\n%+v", got, mem)
			}
		})
	}
}

// TestServerHeapIndependentOfCompletedTasks is a memory gate, not an
// allocation count: once bags finish, the live heap of an in-memory
// server must not grow with the number of tasks they held. Only the
// fixed-size per-bag archive entry stays.
func TestServerHeapIndependentOfCompletedTasks(t *testing.T) {
	const tasksPerBag = 500
	s, err := NewServer(Config{MaxWorkers: 16, Lease: -1, Clock: &fakeClock{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	works := make([]float64, tasksPerBag)
	for i := range works {
		works[i] = 100
	}
	completeBags := func(n int) {
		for range n {
			sh.submit(10, works)
		}
		want := sh.partial(false).bagsCompleted + n
		for sh.partial(false).bagsCompleted < want {
			for w := range s.cfg.MaxWorkers {
				id := fmt.Sprintf("w%02d", w)
				res, err := sh.fetch(id, 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Assigned {
					sh.report(id, res.Replica, false)
				}
			}
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	completeBags(20)
	before := liveHeap()
	const later = 200
	completeBags(later)
	after := liveHeap()
	runtime.KeepAlive(s)
	perTask := (float64(after) - float64(before)) / (later * tasksPerBag)
	t.Logf("live heap %d → %d B: %.2f B per completed task", before, after, perTask)
	if perTask >= 8 {
		t.Fatalf("live heap grew %.1f B per completed task, want < 8", perTask)
	}
}
