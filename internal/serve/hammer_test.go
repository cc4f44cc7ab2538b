package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/rng"
)

// TestConcurrentHammer drives the server with 100 parallel fetch/report
// workers (plus injected failure reports) until every bag completes, then
// checks the scheduler's bookkeeping invariants. Run under -race this is
// the subsystem's primary concurrency check.
func TestConcurrentHammer(t *testing.T) {
	const (
		numWorkers = 100
		numBags    = 16
		bagTasks   = 75
	)
	srv, err := NewServer(Config{
		Policy:     core.LongIdle,
		MaxWorkers: numWorkers,
		Lease:      10 * time.Second,
		RetryMs:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	works := make([]float64, bagTasks)
	for i := range works {
		works[i] = 10
	}
	for i := 0; i < numBags; i++ {
		if _, err := c.Submit(10, works); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < numWorkers; i++ {
		w := NewSimWorker(c, WorkerConfig{
			ID:       fmt.Sprintf("w%03d", i),
			FailProb: 0.02,
			Poll:     time.Millisecond,
		}, rng.Root(7, fmt.Sprintf("hammer-%d", i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Error(err)
			}
		}()
	}

	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.BagsCompleted == numBags {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("timed out: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	checkInvariants(srv)

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TasksCompleted != numBags*bagTasks {
		t.Fatalf("tasks completed %d, want %d", st.TasksCompleted, numBags*bagTasks)
	}
	// Injected failures must have exercised the resubmission path, and
	// every started replica must be accounted for: completed, killed as
	// a sibling, or lost to a (reported or lease) failure.
	if st.ReplicaFailures == 0 {
		t.Fatal("failure injection produced no resubmissions")
	}
	if st.ReplicasStarted != st.TasksCompleted+st.ReplicasKilled+st.ReplicaFailures+st.RunningReplicas {
		t.Fatalf("replica accounting: started %d != done %d + killed %d + failed %d + running %d",
			st.ReplicasStarted, st.TasksCompleted, st.ReplicasKilled, st.ReplicaFailures, st.RunningReplicas)
	}
}

// TestCrashingWorkersStillDrain kills a third of the fleet mid-assignment
// (silent crashes) and relies on lease expiry to recover their tasks.
// Replication is disabled (threshold 1) so that expiry, not a WQR sibling
// replica, is the only way a hostage task can finish.
func TestCrashingWorkersStillDrain(t *testing.T) {
	srv, err := NewServer(Config{
		Policy:     core.FCFSShare,
		MaxWorkers: 12,
		Sched:      core.SchedConfig{Threshold: 1},
		Lease:      300 * time.Millisecond,
		RetryMs:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	works := make([]float64, 40)
	for i := range works {
		works[i] = 10
	}
	if _, err := c.Submit(10, works); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	start := func(w *SimWorker) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	// The crashers take their assignments before any healthy worker
	// starts, so each one really holds a task hostage; otherwise the
	// healthy workers can drain the bag before a slow-starting crasher
	// ever fetches.
	var crashed []*SimWorker
	for i := 0; i < 12; i += 3 {
		cfg := WorkerConfig{ID: fmt.Sprintf("c%02d", i), Poll: time.Millisecond}
		cfg.CrashProb = 1 // dies silently on its first assignment
		w := NewSimWorker(c, cfg, rng.Root(11, fmt.Sprintf("crash-%d", i)))
		crashed = append(crashed, w)
		start(w)
	}
	wg.Wait()
	for _, w := range crashed {
		if !w.Crashed() {
			t.Fatalf("worker %s returned without crashing", w.cfg.ID)
		}
	}
	crashers := len(crashed)
	for i := 0; i < 12; i++ {
		if i%3 == 0 {
			continue
		}
		cfg := WorkerConfig{ID: fmt.Sprintf("c%02d", i), Poll: time.Millisecond}
		start(NewSimWorker(c, cfg, rng.Root(11, fmt.Sprintf("crash-%d", i))))
	}

	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.BagsCompleted == 1 {
			if st.LeaseExpiries < crashers {
				t.Fatalf("lease expiries %d, want >= %d", st.LeaseExpiries, crashers)
			}
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("timed out: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	checkInvariants(srv)
}
