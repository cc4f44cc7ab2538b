package serve

// Replicated-cluster integration tests. TestClusterReplicationInProcess
// runs a 3-node cluster inside the test process: election, quorum-acked
// dispatch, follower redirects, replication state on /v1/stats and
// /metrics, and a graceful leader handoff. TestClusterFailoverSIGKILL is
// the acceptance test: three daemon-like helper processes form a cluster,
// the leader is SIGKILLed mid-workload, and the survivors must elect a
// successor, lose no acknowledged operation, reject pre-failover replica
// tokens, and preserve the paper's Figure-1 policy ranking.

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
	"botgrid/internal/replicate"
)

// foScale compresses reference seconds to wall time for the failover
// workload, matching the crash test's compression.
const foScale = crashScale

// reserveAddrs grabs n distinct loopback addresses by binding and
// releasing ephemeral ports. Release-to-reuse is a classic race, but every
// peer address must be known before any cluster node starts, and on
// loopback the window is vanishingly small.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		if err := ln.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return addrs
}

// clusterWorker is resilientWorker's cluster twin: it rides out leader
// redirects, elections, and failovers through the rotating Client, counting
// results the cluster acknowledged as quorum-durable.
func clusterWorker(ctx context.Context, cc *Client, id string, power float64, tr *ackTracker) {
	for ctx.Err() == nil {
		resp, err := cc.Fetch(id, power)
		if err != nil {
			sleepCtx(ctx, 20*time.Millisecond)
			continue
		}
		if !resp.Assigned {
			sleepCtx(ctx, 2*time.Millisecond)
			continue
		}
		a := resp.Assignment
		if sleepCtx(ctx, time.Duration(a.Work/power*foScale*float64(time.Second))) != nil {
			return
		}
		ack, err := cc.Report(id, a.Replica, StatusDone)
		if err != nil {
			continue // fetch again: the lease makes redelivery idempotent
		}
		if ack == AckOK {
			tr.note(id, a.Replica)
		}
	}
}

// waitLeaderStats polls the cluster until the leader's stats satisfy ok.
func waitLeaderStats(t *testing.T, cc *Client, timeout time.Duration, what string, ok func(StatsResponse) bool) StatsResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last StatsResponse
	var lastErr error
	for time.Now().Before(deadline) {
		st, err := cc.LeaderStats()
		lastErr = err
		if err == nil {
			last = st
			if ok(st) {
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (last error %v, last stats %+v)", what, lastErr, last)
	return last
}

// TestClusterReplicationInProcess drives a full leadership cycle in one
// process: elect, dispatch through quorum acks, verify the replication
// surface, close the leader, and finish the workload under its successor.
func TestClusterReplicationInProcess(t *testing.T) {
	const n = 3
	replAddrs := reserveAddrs(t, n)
	peers := make([]replicate.Peer, n)
	for i := range peers {
		peers[i] = replicate.Peer{ID: fmt.Sprintf("n%d", i), Addr: replAddrs[i]}
	}

	root := t.TempDir()
	gates := make([]*Gate, n)
	bases := make([]string, n)
	httpLns := make([]net.Listener, n)
	for i := range gates {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		httpLns[i] = ln
		bases[i] = "http://" + ln.Addr().String()
		g, err := StartCluster(Config{
			Policy:      core.FCFSShare,
			MaxWorkers:  4,
			WorkerPower: lvsPower,
			Lease:       10 * time.Second,
			RetryMs:     1,
		}, replicate.Config{
			NodeID:        peers[i].ID,
			Peers:         peers,
			Dir:           root + "/" + peers[i].ID,
			Lease:         250 * time.Millisecond,
			AdvertiseHTTP: ln.Addr().String(),
			Fsync:         journal.FsyncBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = g
		defer g.Close()
		go http.Serve(ln, g)
	}
	for _, ln := range httpLns {
		defer ln.Close()
	}

	// One node must win the staggered election.
	leaderIdx := -1
	for deadline := time.Now().Add(10 * time.Second); leaderIdx < 0; {
		for i, g := range gates {
			if g.Leading() {
				leaderIdx = i
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader elected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cc := NewClient(bases...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &ackTracker{}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("ipw%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			clusterWorker(ctx, cc, id, lvsPower, tr)
		}()
	}
	defer func() { cancel(); wg.Wait() }()

	// Submit through a follower: the 307 redirect must land it on the
	// leader transparently.
	follower := (leaderIdx + 1) % n
	fc := NewClient(bases[follower])
	if _, err := fc.Submit(2000, []float64{10, 10, 10, 10}); err != nil {
		t.Fatalf("submit via follower redirect: %v", err)
	}

	st := waitLeaderStats(t, cc, 30*time.Second, "first bag to complete", func(st StatsResponse) bool {
		return st.BagsCompleted == 1
	})
	if st.Replication == nil || st.Replication.Role != "leader" {
		t.Fatalf("leader stats carry no leader replication state: %+v", st.Replication)
	}
	term1 := st.Replication.Term
	waitLeaderStats(t, cc, 10*time.Second, "followers to match the leader's log", func(st StatsResponse) bool {
		r := st.Replication
		if r == nil || len(r.Followers) != n-1 {
			return false
		}
		for _, f := range r.Followers {
			if !f.Connected || f.MatchLSN < r.CommitLSN {
				return false
			}
		}
		return r.CommitLSN == r.LastLSN
	})

	// The follower's own stats endpoint reports its role and the leader's
	// dispatch address without redirecting.
	var fst StatsResponse
	if err := NewClient(bases[follower]).get("/v1/stats", &fst); err != nil {
		t.Fatal(err)
	}
	if fst.Replication == nil || fst.Replication.Role != RoleFollowerName ||
		"http://"+fst.Replication.LeaderHTTP != bases[leaderIdx] {
		t.Fatalf("follower stats: %+v", fst.Replication)
	}
	resp, err := http.Get(bases[follower] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met struct {
		Replication *replicate.Status `json:"replication"`
	}
	if err := decodeResponse(resp, "/metrics", &met); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if met.Replication == nil || met.Replication.Role != RoleFollowerName {
		t.Fatalf("follower metrics: %+v", met.Replication)
	}

	// Graceful failover: close the leader (HTTP listener too — the node is
	// gone) and the survivors must elect a successor that still has every
	// quorum-acked record.
	preClose := st
	httpLns[leaderIdx].Close()
	if err := gates[leaderIdx].Close(); err != nil {
		t.Fatalf("closing leader: %v", err)
	}
	st = waitLeaderStats(t, cc, 30*time.Second, "successor election", func(st StatsResponse) bool {
		return st.Replication != nil && st.Replication.Term > term1
	})
	if st.BagsSubmitted != preClose.BagsSubmitted || st.TasksCompleted < preClose.TasksCompleted {
		t.Fatalf("state lost across failover: %d/%d bags, %d/%d tasks",
			st.BagsSubmitted, preClose.BagsSubmitted, st.TasksCompleted, preClose.TasksCompleted)
	}
	if st.Replication.LastFailoverUnix == 0 {
		t.Fatalf("successor reports no failover: %+v", st.Replication)
	}

	// The successor must still dispatch: run a second bag to completion.
	if _, err := cc.Submit(2000, []float64{10, 10, 10, 10}); err != nil {
		t.Fatalf("submit after failover: %v", err)
	}
	waitLeaderStats(t, cc, 30*time.Second, "post-failover bag to complete", func(st StatsResponse) bool {
		return st.BagsCompleted == 2
	})
}

// TestFailoverHelperProcess is not a test: it is one cluster node of
// TestClusterFailoverSIGKILL, run in a child process so the parent can
// SIGKILL the leader like a real machine loss. It prints its dispatch
// address on stdout and serves until killed.
func TestFailoverHelperProcess(t *testing.T) {
	if os.Getenv("BOTGRID_FO_HELPER") != "1" {
		t.Skip("helper process for TestClusterFailoverSIGKILL")
	}
	fail := func(err error) {
		fmt.Printf("HELPER_ERR=%v\n", err)
		os.Exit(1)
	}
	k, err := core.ParsePolicy(os.Getenv("BOTGRID_FO_POLICY"))
	if err != nil {
		fail(err)
	}
	peers, err := replicate.ParsePeers(os.Getenv("BOTGRID_FO_PEERS"))
	if err != nil {
		fail(err)
	}
	httpAddr := os.Getenv("BOTGRID_FO_HTTP")
	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		fail(err)
	}
	g, err := StartCluster(Config{
		Policy:      k,
		MaxWorkers:  crashWorkers,
		WorkerPower: crashPower,
		Lease:       30 * time.Second,
		RetryMs:     1,
	}, replicate.Config{
		NodeID:        os.Getenv("BOTGRID_FO_NODE"),
		Peers:         peers,
		Dir:           os.Getenv("BOTGRID_FO_DIR"),
		Lease:         400 * time.Millisecond,
		AdvertiseHTTP: httpAddr,
		Fsync:         journal.FsyncBatch,
		Logf:          log.Printf,
	})
	if err != nil {
		fail(err)
	}
	_ = g
	go http.Serve(ln, g)
	fmt.Printf("HELPER_ADDR=%s\n", ln.Addr())
	select {} // serve until SIGKILLed; deliberately no cleanup
}

// failoverRun drives the live-vs-sim workload against a 3-process cluster,
// SIGKILLs the leader once a third of the tasks are done, and verifies the
// survivors elect a successor with zero acknowledged loss. It returns the
// mean turnaround in reference seconds with the measured failover outage
// subtracted (downtime is policy-independent).
func failoverRun(t *testing.T, k core.PolicyKind) float64 {
	t.Helper()
	root := t.TempDir()
	addrs := reserveAddrs(t, 6) // [0..2] replication, [3..5] dispatch
	ids := []string{"a", "b", "c"}
	var spec []string
	for i, id := range ids {
		spec = append(spec, id+"="+addrs[i])
	}
	peerSpec := strings.Join(spec, ",")

	cmds := make(map[string]*exec.Cmd, len(ids))
	bases := make([]string, len(ids))
	for i, id := range ids {
		cmds[id] = startHelperProc(t, "^TestFailoverHelperProcess$",
			"BOTGRID_FO_HELPER=1",
			"BOTGRID_FO_DIR="+root+"/"+id,
			"BOTGRID_FO_POLICY="+k.String(),
			"BOTGRID_FO_NODE="+id,
			"BOTGRID_FO_PEERS="+peerSpec,
			"BOTGRID_FO_HTTP="+addrs[3+i],
		)
		bases[i] = "http://" + helperAddr(cmds[id])
	}
	defer func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	cc := NewClient(bases...)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	waitLeaderStats(t, cc, 30*time.Second, "initial election", func(StatsResponse) bool { return true })
	for _, b := range lvsBots() {
		if _, err := cc.Submit(b.Granularity, b.TaskWork); err != nil {
			t.Fatalf("%s: submit: %v", k, err)
		}
	}
	// Quorum-acked submits are on a majority of nodes by definition; make
	// sure none was double-entered by a retried redirect either.
	if st := waitLeaderStats(t, cc, 10*time.Second, "submits to land", func(st StatsResponse) bool {
		return st.BagsSubmitted >= lvsBags
	}); st.BagsSubmitted != lvsBags {
		t.Fatalf("%s: %d bags entered, %d submitted", k, st.BagsSubmitted, lvsBags)
	}

	tr := &ackTracker{}
	var wg sync.WaitGroup
	for i := 0; i < crashWorkers; i++ {
		id := fmt.Sprintf("fw%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			clusterWorker(ctx, cc, id, crashPower, tr)
		}()
	}
	defer func() { cancel(); wg.Wait() }()

	// Let the fleet chew through a third of the tasks, then kill the leader.
	total := lvsBags * lvsTasks
	preKill := waitLeaderStats(t, cc, 120*time.Second, "the kill point", func(st StatsResponse) bool {
		return st.TasksCompleted*3 >= total
	})
	leaderID := preKill.Replication.LeaderID
	if _, ok := cmds[leaderID]; !ok {
		t.Fatalf("%s: unknown leader %q", k, leaderID)
	}
	ackedAtKill, staleWorker, staleSeq := tr.snapshot()
	if ackedAtKill == 0 {
		t.Fatalf("%s: no acknowledged results before the kill", k)
	}
	killStart := time.Now()
	cmds[leaderID].Process.Kill() // SIGKILL: no drain, no demotion handshake
	cmds[leaderID].Wait()
	delete(cmds, leaderID)

	// The survivors detect the dead lease and elect; nothing acknowledged
	// may be missing from the successor.
	st := waitLeaderStats(t, cc, 30*time.Second, "successor election", func(st StatsResponse) bool {
		return st.Replication != nil && st.Replication.LeaderID != leaderID
	})
	outage := time.Since(killStart).Seconds()
	if st.Replication.Term <= preKill.Replication.Term {
		t.Fatalf("%s: successor term %d did not advance past %d", k, st.Replication.Term, preKill.Replication.Term)
	}
	if st.BagsSubmitted != lvsBags || len(st.Bags) != lvsBags {
		t.Fatalf("%s: %d/%d bags survived the failover", k, st.BagsSubmitted, lvsBags)
	}
	if st.TasksCompleted < ackedAtKill {
		t.Fatalf("%s: %d tasks complete after failover, but %d results were acknowledged",
			k, st.TasksCompleted, ackedAtKill)
	}
	// A pre-failover completed replica's token must be stale on the
	// successor (retry: the fleet is still hammering it).
	stale := false
	for range 50 {
		ack, err := cc.Report(staleWorker, staleSeq, StatusDone)
		if err == nil {
			stale = ack == AckStale
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !stale {
		t.Fatalf("%s: pre-failover token was not rejected as stale", k)
	}

	st = waitLeaderStats(t, cc, 120*time.Second, "workload completion", func(st StatsResponse) bool {
		return st.BagsCompleted == lvsBags
	})
	sum := 0.0
	for _, b := range st.Bags {
		if !b.Completed {
			t.Fatalf("%s: bag %d incomplete in final stats", k, b.Bag)
		}
		turn := b.Turnaround
		if b.DoneAt > preKill.Now {
			// The bag lived through the outage; subtract it so policies are
			// compared on scheduling, not on election latency.
			turn -= outage
		}
		sum += turn
	}
	return sum / float64(lvsBags) / foScale
}

// TestClusterFailoverSIGKILL is the acceptance test for the replication
// subsystem: for each Figure-1 policy, SIGKILL the leader of a 3-node
// cluster mid-traffic, verify quorum failover with zero acknowledged loss
// and stale-token rejection, finish the workload, and check the paper's
// policy ranking (FCFS-Share and LongIdle beat RR) holds across failover.
func TestClusterFailoverSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-the-leader integration test")
	}
	policies := []core.PolicyKind{core.FCFSShare, core.LongIdle, core.RR}
	mean := make(map[core.PolicyKind]float64)
	for _, k := range policies {
		mean[k] = failoverRun(t, k)
		t.Logf("%-10s mean turnaround across failover %8.0f ref-s", k, mean[k])
	}
	if !(mean[core.FCFSShare] < mean[core.RR]) || !(mean[core.LongIdle] < mean[core.RR]) {
		t.Fatalf("Figure-1 ranking lost across failover: %+v", mean)
	}
}
