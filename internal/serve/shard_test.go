package serve

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
	"botgrid/internal/wire"
)

// workerOnShard finds a worker ID the current ring maps to the given
// shard.
func workerOnShard(t *testing.T, s *Server, shard int) string {
	t.Helper()
	r := s.ring.Load()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("sw%d", i)
		if r.Lookup(id) == shard {
			return id
		}
	}
	t.Fatalf("no worker id maps to shard %d", shard)
	return ""
}

// TestShardedDispatchNoGlobalMutex is the hot-path acceptance test: with
// one shard's mutex held hostage, dispatch on every other shard must keep
// working, and a /v1/stats request — which needs the hostage shard — must
// block without blocking them. That is only possible if neither the
// request router nor the stats merge holds any global lock.
func TestShardedDispatchNoGlobalMutex(t *testing.T) {
	s, c, _ := newTestServer(t, Config{Shards: 4, MaxWorkers: 16})
	// Work on every shard: bags stripe round-robin, so 4 submissions put
	// one bag on each.
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(100, []float64{50, 50}); err != nil {
			t.Fatal(err)
		}
	}

	s.shards[1].mu.Lock() // hostage
	defer s.shards[1].mu.Unlock()

	statsDone := make(chan error, 1)
	go func() {
		_, err := c.Stats()
		statsDone <- err
	}()

	// Dispatch on shards 0, 2 and 3 proceeds while shard 1 is seized and
	// the stats request is pending.
	for _, shard := range []int{0, 2, 3} {
		id := workerOnShard(t, s, shard)
		fetched := make(chan error, 1)
		go func() {
			resp, err := c.Fetch(id, 0)
			if err == nil && !resp.Assigned {
				err = fmt.Errorf("shard %d returned no work", shard)
			}
			fetched <- err
		}()
		select {
		case err := <-fetched:
			if err != nil {
				t.Fatalf("fetch on shard %d with shard 1 blocked: %v", shard, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("fetch on shard %d hung while shard 1 was blocked: global mutex on the hot path", shard)
		}
	}

	// The stats request is still waiting on the hostage shard...
	select {
	case err := <-statsDone:
		t.Fatalf("stats completed with shard 1 locked (err=%v): snapshot skipped a shard", err)
	case <-time.After(50 * time.Millisecond):
	}
	// ...and completes once it is released.
	s.shards[1].mu.Unlock()
	select {
	case err := <-statsDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stats never completed after the shard was released")
	}
	s.shards[1].mu.Lock() // re-acquire for the deferred unlock
}

// TestShardedStatsMergesShards checks the merged /v1/stats view: global
// counts sum the shards, bags come back in global-ID order, and the
// per-shard section reports every shard with its ring weight.
func TestShardedStatsMergesShards(t *testing.T) {
	s, c, _ := newTestServer(t, Config{Shards: 4, MaxWorkers: 16})
	const bags = 7
	for i := 0; i < bags; i++ {
		id, err := c.Submit(100, []float64{50, 50, 50})
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("submission %d got global bag ID %d", i, id)
		}
	}
	for shard := 0; shard < 4; shard++ {
		mustFetch(t, c, workerOnShard(t, s, shard))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BagsSubmitted != bags || len(st.Bags) != bags {
		t.Fatalf("stats sees %d/%d bags: %+v", st.BagsSubmitted, len(st.Bags), st)
	}
	for i, b := range st.Bags {
		if b.Bag != i {
			t.Fatalf("merged bag list out of global order: %+v", st.Bags)
		}
	}
	if st.Workers != 4 || st.RunningReplicas != 4 {
		t.Fatalf("want 4 workers and 4 running replicas, got %d/%d", st.Workers, st.RunningReplicas)
	}
	if st.ShardCount != 4 || len(st.ShardStats) != 4 {
		t.Fatalf("shard section missing: count=%d stats=%d", st.ShardCount, len(st.ShardStats))
	}
	totalWorkers := 0
	for i, ss := range st.ShardStats {
		if ss.Shard != i || ss.Weight < 1 {
			t.Fatalf("bad shard status %d: %+v", i, ss)
		}
		totalWorkers += ss.Workers
	}
	if totalWorkers != 4 {
		t.Fatalf("per-shard workers sum to %d, want 4", totalWorkers)
	}
	// Each bag is addressable by its global ID.
	for i := 0; i < bags; i++ {
		bs, err := c.Bag(i)
		if err != nil || bs.Bag != i || bs.Tasks != 3 {
			t.Fatalf("bag %d lookup: %+v, %v", i, bs, err)
		}
	}
}

// TestShardedRecoveryRoundTrip journals a 4-shard server, restarts it with
// the same shard count, and checks that bags, completions, workers and
// replica leases all come back — the N-journal replay path.
func TestShardedRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{}
	cfg := Config{
		Shards:     4,
		MaxWorkers: 16,
		Clock:      clk,
		Lease:      10 * time.Second,
		DataDir:    dir,
		Fsync:      journal.FsyncOff,
	}
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]string, 4)
	for i := range workers {
		workers[i] = workerOnShard(t, s1, i)
	}
	var submitted []int
	for i := 0; i < 6; i++ {
		resp, wait := s1.shards[i%4].submit(100, []float64{40, 40})
		_ = wait
		submitted = append(submitted, resp.Bag)
	}
	// One replica per shard; complete the one on shard 2.
	var doneReplica uint64
	for i, id := range workers {
		resp, err := s1.shards[i].fetch(id, 0)
		if err != nil || !resp.Assigned {
			t.Fatalf("fetch %s on shard %d: %+v, %v", id, i, resp, err)
		}
		if i == 2 {
			doneReplica = resp.Replica
		}
	}
	clk.advance(1)
	if ack, _ := s1.shards[2].report(workers[2], doneReplica, false); ack != wire.AckOK {
		t.Fatalf("report on shard 2: ack=%v", ack)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec == nil || rec.Fresh {
		t.Fatalf("no recovery info after restart: %+v", rec)
	}
	// 4 replicas: one per worker — completing shard 2's freed the slot and
	// the scheduler immediately dispatched the bag's second task to it.
	if rec.Bags != 6 || rec.Workers != 4 || rec.Replicas != 4 {
		t.Fatalf("recovered bags=%d workers=%d replicas=%d, want 6/4/4", rec.Bags, rec.Workers, rec.Replicas)
	}
	for i := range s2.shards {
		s2.shards[i].mu.Lock()
		s2.shards[i].sched.CheckInvariants()
		s2.shards[i].mu.Unlock()
	}
	// Global bag IDs resolve to the same bags.
	for _, g := range submitted {
		shard, local := g%4, g/4
		st, ok := s2.shards[shard].bagStatusLocal(local)
		if !ok || st.Bag != g || st.Tasks != 2 {
			t.Fatalf("bag %d after restart: %+v ok=%v", g, st, ok)
		}
	}
	// The completed task survived; the worker pin routes back to shard 2,
	// and the pre-restart token reports stale (the task is done).
	if s2.routeWorker(workers[2], false) != s2.shards[2] {
		t.Fatalf("worker %s lost its shard-2 pin", workers[2])
	}
	if ack, _ := s2.shards[2].report(workers[2], doneReplica, false); ack != wire.AckStale {
		t.Fatalf("pre-restart token after recovery: ack=%v", ack)
	}
	// New submissions continue the dense global numbering.
	resp, _ := s2.shards[(6)%4].submit(100, []float64{40})
	if resp.Bag != 6 {
		t.Fatalf("post-restart submission got global ID %d, want 6", resp.Bag)
	}
}

// TestShardCountMismatchRefused pins the manifest contract: a directory
// journaled under one shard count refuses to open under another, in both
// directions, and the error names the reshard escape hatch.
func TestShardCountMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{}
	cfg := Config{Shards: 2, MaxWorkers: 8, Clock: clk, DataDir: dir, Fsync: journal.FsyncOff, Lease: -1}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.shards[0].submit(100, []float64{10})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		bad := cfg
		bad.Shards = n
		if _, err := NewServer(bad); err == nil || !strings.Contains(err.Error(), "reshard") {
			t.Fatalf("shards=%d opened a 2-shard directory: err=%v", n, err)
		}
	}
	// A pre-manifest (legacy, root-layout) directory is single-shard.
	legacy := t.TempDir()
	lc := Config{Shards: 1, MaxWorkers: 8, Clock: clk, DataDir: legacy, Fsync: journal.FsyncOff, Lease: -1}
	ls, err := NewServer(lc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(legacy, journal.ManifestName)); err != nil {
		t.Fatal(err)
	}
	lc.Shards = 2
	if _, err := NewServer(lc); err == nil || !strings.Contains(err.Error(), "reshard") {
		t.Fatalf("2 shards opened a legacy single-shard directory: err=%v", err)
	}
}

// TestReshardRoundTrip resplits a journaled directory 2 -> 4 -> 1 and
// checks bags, completed-bag turnarounds and counters survive each hop
// while running tasks are demoted to front-of-queue resubmissions.
func TestReshardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{}
	cfg := Config{Shards: 2, MaxWorkers: 8, Clock: clk, DataDir: dir, Fsync: journal.FsyncOff, Lease: 10 * time.Second}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bags = 5
	for i := 0; i < bags; i++ {
		if resp, _ := s.shards[i%2].submit(100, []float64{30, 30}); resp.Bag != i {
			t.Fatalf("submission %d got global %d", i, resp.Bag)
		}
	}
	// Run one replica to completion (bag 0 task), leave one running.
	w0 := workerOnShard(t, s, 0)
	r0, err := s.shards[0].fetch(w0, 0)
	if err != nil || !r0.Assigned {
		t.Fatalf("fetch: %+v %v", r0, err)
	}
	clk.advance(2)
	if ack, _ := s.shards[0].report(w0, r0.Replica, false); ack != wire.AckOK {
		t.Fatalf("report ack %v", ack)
	}
	w1 := workerOnShard(t, s, 1)
	if r1, err := s.shards[1].fetch(w1, 0); err != nil || !r1.Assigned {
		t.Fatalf("fetch: %+v %v", r1, err)
	}
	preStats := s.shards[0].partial(false)
	_ = preStats
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(n int) {
		t.Helper()
		if err := Reshard(dir, n, journal.FsyncOff); err != nil {
			t.Fatalf("reshard to %d: %v", n, err)
		}
		c2 := cfg
		c2.Shards = n
		s2, err := NewServer(c2)
		if err != nil {
			t.Fatalf("open after reshard to %d: %v", n, err)
		}
		defer s2.Close()
		total, done, pending, running := 0, 0, 0, 0
		for _, sh := range s2.shards {
			sh.mu.Lock()
			sh.sched.CheckInvariants()
			sh.mu.Unlock()
			p := sh.partial(true)
			total += len(p.bags)
			done += p.tasksCompleted
			pending += p.pending
			running += p.running
		}
		if total != bags {
			t.Fatalf("n=%d: %d bags after reshard, want %d", n, total, bags)
		}
		if done != 1 {
			t.Fatalf("n=%d: %d tasks completed after reshard, want 1", n, done)
		}
		if running != 0 {
			t.Fatalf("n=%d: %d replicas survived the reshard", n, running)
		}
		// 5 bags x 2 tasks, one done, none running: the formerly running
		// task is pending again (with its restart flag, at the queue front).
		if pending != bags*2-1 {
			t.Fatalf("n=%d: %d pending after reshard, want %d", n, pending, bags*2-1)
		}
		for g := 0; g < bags; g++ {
			shard, local := g%n, g/n
			bs, ok := s2.shards[shard].bagStatusLocal(local)
			if !ok || bs.Bag != g {
				t.Fatalf("n=%d: bag %d missing after reshard: %+v", n, g, bs)
			}
		}
		// Every shard restarts local numbering at the same point past the
		// largest pre-reshard global ID, so shard 0's next submission lands
		// on the next multiple of n — global IDs skip ahead by at most n-1
		// across a reshard, and never collide.
		want := (bags - 1 + n) / n * n
		resp, _ := s2.shards[0].submit(100, []float64{10})
		if resp.Bag != want {
			t.Fatalf("n=%d: next submission got global %d, want %d", n, resp.Bag, want)
		}
	}
	check(4)
	// check(4) submitted one more bag; account for it on the next hop.
	if err := Reshard(dir, 1, journal.FsyncOff); err != nil {
		t.Fatal(err)
	}
	c1 := cfg
	c1.Shards = 1
	s3, err := NewServer(c1)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	st := s3.shards[0].partial(true)
	if len(st.bags) != bags+1 {
		t.Fatalf("1-shard reopen sees %d bags, want %d", len(st.bags), bags+1)
	}
	s3.shards[0].mu.Lock()
	s3.shards[0].sched.CheckInvariants()
	s3.shards[0].mu.Unlock()
}

// digestServer drives an identical scripted load against the server and
// returns a digest of everything scheduling-visible: shard placement,
// every assignment (worker, global bag, task, replica), and the ring
// weight trajectory across explicit rebalance rounds.
func digestServer(t *testing.T, k core.PolicyKind) string {
	t.Helper()
	clk := &fakeClock{}
	s, err := NewServer(Config{
		Shards:     4,
		MaxWorkers: 32,
		Clock:      clk,
		Lease:      -1, // no lease expiry: fully scripted time
		Seed:       7,
		Policy:     k,
		Rebalance:  -1, // rounds driven explicitly below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := sha256.New()
	for i := 0; i < 8; i++ {
		sh := s.shards[int(s.nextSubmit.Add(1)-1)%len(s.shards)]
		resp, _ := sh.submit(500, []float64{90, 70, 50})
		fmt.Fprintf(h, "submit %d -> %d\n", i, resp.Bag)
	}
	workers := make([]string, 12)
	for i := range workers {
		workers[i] = fmt.Sprintf("dw%d", i)
	}
	for round := 0; round < 6; round++ {
		clk.advance(1)
		for _, id := range workers {
			sh := s.routeWorker(id, true)
			resp, err := sh.fetch(id, 0)
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := s.pins.Load(id); !ok || v.(int) != sh.idx {
				s.pins.Store(id, sh.idx)
			}
			if resp.Assigned {
				fmt.Fprintf(h, "r%d %s@%d bag %d task %d rep %d\n", round, id, sh.idx, resp.Bag, resp.Task, resp.Replica)
				clk.advance(1)
				ack, _ := sh.report(id, resp.Replica, false)
				fmt.Fprintf(h, "r%d %s ack %s\n", round, id, ack)
			} else {
				fmt.Fprintf(h, "r%d %s@%d idle\n", round, id, sh.idx)
			}
		}
		s.rebalance()
		fmt.Fprintf(h, "r%d weights %v\n", round, s.ring.Load().Weights())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestShardedDeterminismGolden pins that the sharded plane is bit-stable:
// shard assignment, sharded FairShare/LongIdle dispatch and the rebalance
// weight trajectory are identical across two runs with the same seed and
// shard count.
func TestShardedDeterminismGolden(t *testing.T) {
	for _, k := range []core.PolicyKind{core.FairShare, core.LongIdle} {
		a := digestServer(t, k)
		b := digestServer(t, k)
		if a != b {
			t.Fatalf("%s: two identical sharded runs diverged: %s != %s", k, a, b)
		}
		t.Logf("%-10s digest %s", k, a[:16])
	}
}
