package serve

// In-process recovery tests: a journaled server closed and reopened on the
// same data directory (fake clock, deterministic time) must come back with
// identical scheduling state — bags, tasks, replica tokens, worker leases
// and counters. The SIGKILL path is covered separately in crash_test.go.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/frame"
	"botgrid/internal/journal"
)

// newJournaledServer wires a journaled server over dir with a shared fake
// clock, so a test can close it and "restart" on the same state.
func newJournaledServer(t *testing.T, dir string, clk *fakeClock, k core.PolicyKind) (*Server, *Client, func()) {
	t.Helper()
	s, err := NewServer(Config{
		Policy:     k,
		MaxWorkers: 4,
		Sched:      core.SchedConfig{Threshold: 1},
		Lease:      10 * time.Second,
		Clock:      clk,
		DataDir:    dir,
		Fsync:      journal.FsyncBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	stop := func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("closing journaled server: %v", err)
		}
	}
	return s, NewClient(ts.URL), stop
}

func mustStats(t *testing.T, c *Client) StatsResponse {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRecoveryRoundTrip drives a journaled server through submissions,
// dispatches and one completion, restarts it twice, and checks the full
// state — including replica-token continuity and stale-report rejection —
// survives every hop.
func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{}

	_, c, stop := newJournaledServer(t, dir, clk, core.FCFSShare)
	if _, err := c.Submit(50, []float64{100, 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(50, []float64{300}); err != nil {
		t.Fatal(err)
	}
	r0 := mustFetch(t, c, "w0")
	if !r0.Assigned {
		t.Fatal("w0 got no work")
	}
	clk.advance(5)
	if ack := mustReport(t, c, "w0", r0.Assignment.Replica, StatusDone); ack != AckOK {
		t.Fatalf("done report ack %q", ack)
	}
	doneReplica := r0.Assignment.Replica
	r1 := mustFetch(t, c, "w1")
	if !r1.Assigned {
		t.Fatal("w1 got no work")
	}
	clk.advance(1)
	stop()

	// Restart 1: everything back, including the in-flight replica lease.
	_, c, stop = newJournaledServer(t, dir, clk, core.FCFSShare)
	// Completing task 0 freed w0's slot and the scheduler immediately
	// re-dispatched to it, so the pre-restart state had two running
	// replicas and an empty queue.
	st := mustStats(t, c)
	if st.BagsSubmitted != 2 || st.TasksCompleted != 1 || st.RunningReplicas != 2 ||
		st.Workers != 2 || st.PendingTasks != 0 {
		t.Fatalf("recovered stats %+v", st)
	}
	if st.Recovery == nil || st.Recovery.Fresh || st.Recovery.Replicas != 2 {
		t.Fatalf("recovery summary %+v", st.Recovery)
	}
	if st.Journal == nil {
		t.Fatal("stats missing journal metrics")
	}
	if len(st.Bags) != 2 || st.Bags[0].Done != 1 || st.Bags[0].Completed {
		t.Fatalf("recovered bags %+v", st.Bags)
	}
	// The pre-crash completed replica's token is stale forever.
	if ack := mustReport(t, c, "w0", doneReplica, StatusDone); ack != AckStale {
		t.Fatalf("pre-restart completed replica re-report ack %q, want stale", ack)
	}
	// w1's recovered lease still accepts its result.
	clk.advance(5)
	if ack := mustReport(t, c, "w1", r1.Assignment.Replica, StatusDone); ack != AckOK {
		t.Fatalf("recovered replica report ack %q, want ok", ack)
	}
	// Drain the rest through both workers.
	for i := 0; i < 20 && mustStats(t, c).BagsCompleted != 2; i++ {
		for _, w := range []string{"w0", "w1"} {
			if r := mustFetch(t, c, w); r.Assigned {
				clk.advance(1)
				mustReport(t, c, w, r.Assignment.Replica, StatusDone)
			}
		}
	}
	st = mustStats(t, c)
	if st.BagsCompleted != 2 || st.TasksCompleted != 3 {
		t.Fatalf("drained stats %+v", st)
	}
	stop()

	// Restart 2: completed bags stay queryable from the archive.
	_, c, stop = newJournaledServer(t, dir, clk, core.FCFSShare)
	defer stop()
	st = mustStats(t, c)
	if st.BagsSubmitted != 2 || st.BagsCompleted != 2 || len(st.Bags) != 2 {
		t.Fatalf("second-restart stats %+v", st)
	}
	for _, id := range []int{0, 1} {
		bs, err := c.Bag(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bs.Completed || bs.Turnaround <= 0 {
			t.Fatalf("archived bag %d status %+v", id, bs)
		}
	}
}

// TestLongWorkerIDRefusedBeforeJournal: the journal cannot replay a
// worker ID longer than frame.MaxWorkerID, so a fetch carrying one is
// refused with a 400 before it is registered, pinned or journaled, while
// the longest valid ID is served — and the directory still recovers.
func TestLongWorkerIDRefusedBeforeJournal(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{}
	longest := strings.Repeat("w", frame.MaxWorkerID)
	tooLong := longest + "w"

	s, c, stop := newJournaledServer(t, dir, clk, core.FCFSShare)
	if _, err := c.Submit(50, []float64{100}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Fetch(tooLong, 0)
	if err == nil || !strings.Contains(err.Error(), "status 400: "+errLongWorker.Error()) {
		t.Fatalf("fetch with a %d-byte ID: err = %v, want a 400 refusal", len(tooLong), err)
	}
	if _, pinned := s.pins.Load(tooLong); pinned {
		t.Fatal("refused worker was pinned")
	}
	// No URL routes an empty ID, so the handler is driven directly.
	req := httptest.NewRequest(http.MethodPost, "/v1/workers//fetch", nil)
	req.SetPathValue("id", "")
	rec := httptest.NewRecorder()
	s.handleFetch(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("fetch with an empty ID: status %d, want 400", rec.Code)
	}
	if r := mustFetch(t, c, longest); !r.Assigned {
		t.Fatal("the longest valid worker ID got no work")
	}
	if st := mustStats(t, c); st.Workers != 1 || st.RunningReplicas != 1 {
		t.Fatalf("stats %+v, want one worker running one replica", st)
	}
	stop()

	_, c, stop = newJournaledServer(t, dir, clk, core.FCFSShare)
	defer stop()
	if st := mustStats(t, c); st.Workers != 1 || st.RunningReplicas != 1 {
		t.Fatalf("recovered stats %+v, want one worker running one replica", st)
	}
}

// TestRecoveredLeaseExpiresOnSchedule: a lease granted before the restart
// keeps its deadline through recovery — it survives as long as the worker
// keeps renewing, and expires as a machine failure (WQR-FT) once the
// silence exceeds the lease, on the original schedule.
func TestRecoveredLeaseExpiresOnSchedule(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{}

	_, c, stop := newJournaledServer(t, dir, clk, core.FCFSShare)
	if _, err := c.Submit(0, []float64{1000}); err != nil {
		t.Fatal(err)
	}
	r := mustFetch(t, c, "w0")
	if !r.Assigned {
		t.Fatal("no assignment")
	}
	clk.advance(6)
	stop()

	s, c, stop := newJournaledServer(t, dir, clk, core.FCFSShare)
	defer stop()
	if got := s.Recovery().LeasesExpired; got != 0 {
		t.Fatalf("%d leases expired at startup, want 0 (deadline not reached)", got)
	}
	// The recovered lease is live: a heartbeat with the pre-restart token
	// renews it.
	if ack, err := c.Heartbeat("w0", r.Assignment.Replica); err != nil || ack != AckOK {
		t.Fatalf("recovered-lease heartbeat = %q, %v", ack, err)
	}
	if n := s.shards[0].expireLeases(); n != 0 {
		t.Fatalf("expired %d leases while renewed", n)
	}
	// Silence past the lease now expires it, exactly like a machine failure.
	clk.advance(10.5)
	if n := s.shards[0].expireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	st := mustStats(t, c)
	if st.RunningReplicas != 0 || st.PendingTasks != 1 || st.ReplicaFailures != 1 {
		t.Fatalf("post-expiry stats %+v", st)
	}
	// The dead replica's token is stale; refetching hands the resubmitted
	// task back out under a fresh token.
	if ack := mustReport(t, c, "w0", r.Assignment.Replica, StatusDone); ack != AckStale {
		t.Fatalf("expired replica report ack %q", ack)
	}
	r2 := mustFetch(t, c, "w0")
	if !r2.Assigned || r2.Assignment.Replica == r.Assignment.Replica {
		t.Fatalf("resubmitted task fetch %+v", r2)
	}
}

// TestLeaseExpiredWhileDownFailsImmediately: a lease whose deadline passed
// during the outage is declared failed during recovery, before any request
// is served.
func TestLeaseExpiredWhileDownFailsImmediately(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{}

	_, c, stop := newJournaledServer(t, dir, clk, core.FCFSShare)
	if _, err := c.Submit(0, []float64{1000}); err != nil {
		t.Fatal(err)
	}
	r := mustFetch(t, c, "w0")
	if !r.Assigned {
		t.Fatal("no assignment")
	}
	clk.advance(2)
	stop()

	clk.advance(20) // the 10s lease deadline passes while the daemon is down

	s, c, stop := newJournaledServer(t, dir, clk, core.FCFSShare)
	defer stop()
	if got := s.Recovery().LeasesExpired; got != 1 {
		t.Fatalf("%d leases expired at startup, want 1", got)
	}
	st := mustStats(t, c)
	if st.RunningReplicas != 0 || st.PendingTasks != 1 || st.ReplicaFailures != 1 || st.LeaseExpiries != 1 {
		t.Fatalf("post-recovery stats %+v", st)
	}
	if ack := mustReport(t, c, "w0", r.Assignment.Replica, StatusDone); ack != AckStale {
		t.Fatalf("dead replica report ack %q", ack)
	}
	r2 := mustFetch(t, c, "w0")
	if !r2.Assigned || r2.Assignment.Replica == r.Assignment.Replica {
		t.Fatalf("resubmitted task fetch %+v", r2)
	}
}
