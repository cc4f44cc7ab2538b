package serve

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"botgrid/internal/core"
)

// fakeClock is a hand-advanced server clock for deterministic lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  float64
}

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d float64) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

// newTestServer wires a server (fake clock, long wall lease so the
// background loop never interferes) and a client over httptest.
// checkInvariants runs the scheduler's internal consistency checks on
// every shard, one shard lock at a time.
func checkInvariants(s *Server) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.sched.CheckInvariants()
		sh.mu.Unlock()
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	cfg.Clock = clk
	if cfg.Lease == 0 {
		cfg.Lease = 10 * time.Second
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, NewClient(ts.URL), clk
}

func mustFetch(t *testing.T, c *Client, worker string) FetchResponse {
	t.Helper()
	resp, err := c.Fetch(worker, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustReport(t *testing.T, c *Client, worker string, replica uint64, status string) string {
	t.Helper()
	ack, err := c.Report(worker, replica, status)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func TestSubmitFetchReportFlow(t *testing.T) {
	s, c, _ := newTestServer(t, Config{Policy: core.FCFSShare, MaxWorkers: 2})

	// An idle worker polls before any work exists.
	if resp := mustFetch(t, c, "w1"); resp.Assigned || resp.RetryMs <= 0 {
		t.Fatalf("empty-queue fetch = %+v", resp)
	}

	bag, err := c.Submit(100, []float64{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if bag != 0 {
		t.Fatalf("bag id %d, want 0", bag)
	}

	// Submission pre-assigned task 0 to the idle worker; fetch delivers
	// it and re-fetching is idempotent.
	r1 := mustFetch(t, c, "w1")
	if !r1.Assigned || r1.Assignment.Bag != 0 || r1.Assignment.Task != 0 || r1.Assignment.Work != 100 {
		t.Fatalf("first fetch = %+v", r1.Assignment)
	}
	if r2 := mustFetch(t, c, "w1"); !r2.Assigned || r2.Assignment.Replica != r1.Assignment.Replica {
		t.Fatalf("re-fetch = %+v, want same replica %d", r2.Assignment, r1.Assignment.Replica)
	}

	if ack := mustReport(t, c, "w1", r1.Assignment.Replica, StatusDone); ack != AckOK {
		t.Fatalf("report ack %q", ack)
	}
	// A stale token (the finished replica) is rejected without effect.
	if ack := mustReport(t, c, "w1", r1.Assignment.Replica, StatusDone); ack != AckStale {
		t.Fatalf("stale report ack %q", ack)
	}

	r3 := mustFetch(t, c, "w1")
	if !r3.Assigned || r3.Assignment.Task != 1 {
		t.Fatalf("second task fetch = %+v", r3.Assignment)
	}
	mustReport(t, c, "w1", r3.Assignment.Replica, StatusDone)

	st, err := c.Bag(0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Completed || st.Done != 2 || st.Turnaround < 0 {
		t.Fatalf("bag status %+v", st)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BagsCompleted != 1 || stats.TasksCompleted != 2 || stats.StaleReports != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.DecisionLatency.Count == 0 {
		t.Fatal("no decision latency samples recorded")
	}

	checkInvariants(s)
}

func TestWorkerCapacityExhausted(t *testing.T) {
	_, c, _ := newTestServer(t, Config{MaxWorkers: 1})
	mustFetch(t, c, "w1")
	if _, err := c.Fetch("w2", 0); err == nil {
		t.Fatal("fetch beyond capacity succeeded")
	}
}

func TestReportFailedResubmits(t *testing.T) {
	_, c, _ := newTestServer(t, Config{MaxWorkers: 1})
	if _, err := c.Submit(50, []float64{50}); err != nil {
		t.Fatal(err)
	}
	r1 := mustFetch(t, c, "w1")
	if ack := mustReport(t, c, "w1", r1.Assignment.Replica, StatusFailed); ack != AckOK {
		t.Fatalf("failed-report ack %q", ack)
	}
	// The task was resubmitted at the queue front and, the slot having
	// rejoined the pool, immediately reassigned as a fresh replica.
	r2 := mustFetch(t, c, "w1")
	if !r2.Assigned || r2.Assignment.Task != 0 || r2.Assignment.Replica == r1.Assignment.Replica {
		t.Fatalf("reassignment = %+v (was %+v)", r2.Assignment, r1.Assignment)
	}
	mustReport(t, c, "w1", r2.Assignment.Replica, StatusDone)
	stats, _ := c.Stats()
	if stats.ReplicaFailures != 1 || stats.BagsCompleted != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestLeaseExpiryKillsReplicaAndResubmits(t *testing.T) {
	s, c, clk := newTestServer(t, Config{MaxWorkers: 1, Lease: 10 * time.Second})
	if _, err := c.Submit(50, []float64{50}); err != nil {
		t.Fatal(err)
	}
	r1 := mustFetch(t, c, "w1")
	if !r1.Assigned {
		t.Fatal("no assignment")
	}

	// Within the lease nothing expires; past it the silent worker is a
	// machine failure: replica killed, task resubmitted.
	clk.advance(9)
	if n := s.shards[0].expireLeases(); n != 0 {
		t.Fatalf("%d premature expiries", n)
	}
	clk.advance(2)
	if n := s.shards[0].expireLeases(); n != 1 {
		t.Fatalf("%d expiries, want 1", n)
	}
	stats, _ := c.Stats()
	if stats.ReplicaFailures != 1 || stats.PendingTasks != 1 || stats.LiveWorkers != 0 {
		t.Fatalf("post-expiry stats %+v", stats)
	}

	// The worker comes back: its late report is stale, but the revived
	// slot immediately receives the resubmitted task again.
	if ack := mustReport(t, c, "w1", r1.Assignment.Replica, StatusDone); ack != AckStale {
		t.Fatalf("late report ack %q", ack)
	}
	r2 := mustFetch(t, c, "w1")
	if !r2.Assigned || r2.Assignment.Task != 0 || r2.Assignment.Replica == r1.Assignment.Replica {
		t.Fatalf("post-revival fetch = %+v", r2.Assignment)
	}
	mustReport(t, c, "w1", r2.Assignment.Replica, StatusDone)
	if stats, _ = c.Stats(); stats.BagsCompleted != 1 || stats.LeaseExpiries != 1 {
		t.Fatalf("final stats %+v", stats)
	}
}

func TestHeartbeatRenewsLease(t *testing.T) {
	s, c, clk := newTestServer(t, Config{MaxWorkers: 1, Lease: 10 * time.Second})
	if _, err := c.Submit(50, []float64{50}); err != nil {
		t.Fatal(err)
	}
	r := mustFetch(t, c, "w1")
	clk.advance(6)
	if ack, err := c.Heartbeat("w1", r.Assignment.Replica); err != nil || ack != AckOK {
		t.Fatalf("heartbeat ack %q err %v", ack, err)
	}
	if ack, _ := c.Heartbeat("w1", r.Assignment.Replica+99); ack != AckStale {
		t.Fatal("wrong-token heartbeat not stale")
	}
	clk.advance(6) // 12s since fetch, 6s since heartbeat
	if n := s.shards[0].expireLeases(); n != 0 {
		t.Fatalf("lease expired despite heartbeat (%d)", n)
	}
	clk.advance(11)
	if n := s.shards[0].expireLeases(); n != 1 {
		t.Fatalf("%d expiries after silence, want 1", n)
	}
}

func TestSiblingReplicaSupersededOnCompletion(t *testing.T) {
	_, c, _ := newTestServer(t, Config{MaxWorkers: 2})
	if _, err := c.Submit(50, []float64{50}); err != nil {
		t.Fatal(err)
	}
	// Both workers hold replicas of the single task (threshold 2).
	r1 := mustFetch(t, c, "w1")
	r2 := mustFetch(t, c, "w2")
	if !r1.Assigned || !r2.Assigned || r1.Assignment.Task != r2.Assignment.Task {
		t.Fatalf("replicas %+v / %+v", r1.Assignment, r2.Assignment)
	}
	if ack := mustReport(t, c, "w1", r1.Assignment.Replica, StatusDone); ack != AckOK {
		t.Fatalf("winner ack %q", ack)
	}
	if ack := mustReport(t, c, "w2", r2.Assignment.Replica, StatusDone); ack != AckStale {
		t.Fatalf("loser ack %q, want stale", ack)
	}
	stats, _ := c.Stats()
	if stats.ReplicasKilled != 1 || stats.TasksCompleted != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c, _ := newTestServer(t, Config{})
	if _, err := c.Submit(10, nil); err == nil {
		t.Fatal("empty bag accepted")
	}
	if _, err := c.Submit(10, []float64{1, -2}); err == nil {
		t.Fatal("negative work accepted")
	}
	if _, err := c.Bag(99); err == nil {
		t.Fatal("unknown bag served")
	}
}

func TestLatencyRecorderPercentiles(t *testing.T) {
	l := NewLatencyRecorder(100)
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	sum := l.Summary()
	if sum.Count != 100 || sum.Max != 0.1 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.P50 < 0.045 || sum.P50 > 0.055 {
		t.Fatalf("p50 %v", sum.P50)
	}
	if sum.P99 < 0.095 || sum.P99 > 0.1 {
		t.Fatalf("p99 %v", sum.P99)
	}
}
