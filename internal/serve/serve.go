// Package serve runs the paper's knowledge-free bag-selection policies as
// a live work-dispatch service: the same core.Scheduler that drives the
// simulator, wrapped in per-shard mutexes and driven by wall-clock time,
// serving real concurrent workers over HTTP.
//
// Workers pull in the BOINC/OurGrid style: each registered worker owns one
// grid.Machine slot, fetching maps to the machine joining the free pool,
// and the scheduler's two-step dispatch (bag selection + WQR-FT) assigns
// replicas to idle slots the instant work arrives. A worker that stops
// heartbeating past its lease is handled exactly like the paper's machine
// failure: the replica is killed and its task resubmitted at the front of
// the bag's queue. See protocol.go for the endpoint reference.
//
// The dispatch plane is partitioned into Config.Shards independent
// scheduler shards (shard.go): workers land on shards by consistent
// hashing, bags by round-robin striping, and the Server here is only a
// router — it holds no lock of its own on the hot path, so requests on
// distinct shards proceed fully in parallel. Globally-coupled policies
// (FairShare, LongIdle) are approximated per shard with a periodic
// cross-shard rebalancer (rebalance.go) shifting worker capacity toward
// the shards that need it.
package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/grid"
	"botgrid/internal/journal"
	"botgrid/internal/replicate"
	"botgrid/internal/rng"
	ring "botgrid/internal/shard"
	"botgrid/internal/wire"
)

// Config tunes the work-dispatch server.
type Config struct {
	// Policy selects the bag-selection policy (default FCFS-Share).
	Policy core.PolicyKind
	// MaxWorkers caps registered workers across all shards; each owns one
	// machine slot (default 256).
	MaxWorkers int
	// WorkerPower is each slot's nominal computing power (default 10,
	// the paper's Hom machine). The knowledge-free policies never read
	// it; it only scales stats.
	WorkerPower float64
	// Sched tunes WQR-FT (zero value: threshold 2, static replication).
	Sched core.SchedConfig
	// Lease is how long a worker may stay silent before it is declared
	// failed (default 30s). Leases are checked every quarter lease (at
	// least every 10ms); negative disables lease expiry.
	Lease time.Duration
	// RetryMs is the poll-again hint returned to idle workers
	// (default 100).
	RetryMs int
	// Seed drives the Random policy's stream (per shard, split by shard
	// index).
	Seed uint64
	// Clock overrides the time source (tests); nil means a WallClock
	// started at NewServer — or, with DataDir set, at the journal's
	// persisted epoch, so the recovered timeline continues across
	// restarts.
	Clock core.Clock

	// Shards partitions the dispatch plane into this many independent
	// scheduler shards (default 1). Each shard owns its own scheduler,
	// lock and journal; there is no global mutex on the dispatch hot
	// path. The shard count is recorded in the data directory's manifest:
	// restarting with the same count recovers exactly, a different count
	// is refused until the directory is resharded (Reshard).
	Shards int
	// Rebalance is the cross-shard rebalance cadence for the globally-
	// coupled policies (FairShare, LongIdle): every interval, a tick
	// reweights the worker ring from coarse per-shard demand summaries so
	// starved shards attract capacity. Zero picks the default (1s);
	// negative disables rebalancing. Meaningless with Shards <= 1.
	Rebalance time.Duration

	// DataDir enables the durability journal: every scheduler state
	// mutation is written ahead to a per-shard log under this directory,
	// periodic snapshots bound replay, and NewServer recovers the
	// complete pre-crash state from it. Empty runs the server purely in
	// memory.
	DataDir string
	// Fsync selects the journal's durability mode (zero value: batch —
	// group-committed fsync). Ignored without DataDir.
	Fsync journal.FsyncMode
	// SnapshotMTBF is the expected crash interval fed to Young's formula
	// for the snapshot cadence (default 10min). Ignored without DataDir.
	SnapshotMTBF time.Duration

	// Log, when non-nil, is a pre-opened record log the server journals
	// through instead of opening one from DataDir. Requires Recovered and
	// a single shard; the server takes ownership and closes the log in
	// Close.
	Log Log
	// Recovered is what opening Log recovered: NewServer restores its
	// snapshot and replays its tail before journaling anything.
	Recovered *journal.Recovered
	// Replication, when non-nil, adds cluster replication state to
	// /v1/stats and /metrics.
	Replication ReplicationSource
}

func (c Config) withDefaults() Config {
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 256
	}
	if c.WorkerPower <= 0 {
		c.WorkerPower = 10
	}
	if c.Sched.Threshold == 0 {
		c.Sched.Threshold = 2
	}
	if c.Lease == 0 {
		c.Lease = 30 * time.Second
	}
	if c.RetryMs <= 0 {
		c.RetryMs = 100
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Rebalance == 0 {
		c.Rebalance = time.Second
	}
	return c
}

// Server is the live work-dispatch service. It implements http.Handler.
// It owns no scheduler state itself: every request is routed to one of
// the shards, whose own mutex guards the single short critical section.
// Routing state (the ring, the worker pins) is lock-free.
type Server struct {
	cfg   Config
	clock core.Clock
	mux   *http.ServeMux

	shards []*shard
	// ring maps worker IDs to shards; the rebalancer swaps in reweighted
	// rings atomically.
	ring atomic.Pointer[ring.Ring]
	// pins remembers which shard each worker is currently registered on.
	// A worker whose ring target drifts from its pin (rebalancing) is
	// handed off at its next idle fetch; until then requests follow the
	// pin so in-flight replicas complete where they started.
	pins sync.Map // worker id -> int
	// slots counts live worker registrations against cfg.MaxWorkers.
	slots      atomic.Int64
	nextSubmit atomic.Uint64
	rebalances atomic.Int64
	moves      atomic.Int64

	// tickMu serializes tick; the next* fields are the server-clock
	// deadlines of its next lease sweep and rebalance round.
	tickMu        sync.Mutex
	nextSweep     float64 //botlint:guarded-by tickMu
	nextRebalance float64 //botlint:guarded-by tickMu

	epoch time.Time // the journal's timeline origin, for resume

	stopOnce  sync.Once
	finalOnce sync.Once
	finalErr  error
	stop      chan struct{}
	done      chan struct{}
}

// NewServer builds a server and, when it has periodic work (leases,
// rebalancing or a journal), starts the one goroutine that runs it. With
// cfg.DataDir set it first recovers all state from the per-shard journals
// found there (or initializes fresh ones and the layout manifest). Call
// Close to stop the background work — and, when journaling, to write the
// final snapshots.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	n := cfg.Shards
	if cfg.Log != nil && n > 1 {
		return nil, errors.New("serve: replication (Config.Log) requires a single shard")
	}

	logs := make([]Log, n)
	recs := make([]*journal.Recovered, n)
	switch {
	case cfg.Log != nil:
		if cfg.Recovered == nil {
			return nil, errors.New("serve: Config.Log requires Config.Recovered")
		}
		logs[0], recs[0] = cfg.Log, cfg.Recovered
	case cfg.DataDir != "":
		var err error
		if logs, recs, err = openShardLogs(cfg, n); err != nil {
			return nil, err
		}
	}
	s, err := newServer(cfg, recs)
	if err == nil {
		err = s.resume(logs)
	}
	if err != nil {
		for _, l := range logs {
			if l != nil {
				l.Close()
			}
		}
		return nil, err
	}
	s.launch()
	return s, nil
}

// newServer builds the server and its shards, each restored from recs[i]
// when there is one — its scheduler left replaying the journal — or empty
// otherwise. Nothing is journaled and nothing runs until resume and
// launch; a replication follower keeps a server in between as its
// standby.
func newServer(cfg Config, recs []*journal.Recovered) (*Server, error) {
	s := &Server{
		cfg:   cfg,
		clock: cfg.Clock,
		mux:   http.NewServeMux(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if s.clock == nil {
		s.clock = core.NewWallClock() // resume moves a recovered timeline's origin
	}
	n := len(recs)
	if recs[0] != nil {
		s.epoch = recs[0].Epoch
	}
	s.ring.Store(ring.NewRing(n, nil))
	for i := 0; i < n; i++ {
		sh, err := s.newShard(i, n, recs[i])
		if err != nil {
			return nil, fmt.Errorf("recovering %s (shard %d): %w", cmp.Or(s.cfg.DataDir, "replicated log"), i, err)
		}
		s.shards = append(s.shards, sh)
	}

	s.mux.HandleFunc("POST /v1/bags", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/bags/{id}", s.handleBag)
	s.mux.HandleFunc("POST /v1/workers/{id}/fetch", s.handleFetch)
	s.mux.HandleFunc("POST /v1/workers/{id}/report", s.handleReport)
	s.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// resume ends recovery: the clock continues the journaled timeline from
// the newest recovered event, every shard leaves replay mode and journals
// through logs[i] (nil: in memory), and leases that ran out while the
// daemon was down expire now.
func (s *Server) resume(logs []Log) error {
	journaled := logs[0] != nil
	if journaled && s.cfg.Clock == nil {
		newest := 0.0
		for _, sh := range s.shards {
			sh.mu.Lock()
			newest = max(newest, sh.newest)
			sh.mu.Unlock()
		}
		*s.clock.(*core.WallClock) = *core.NewWallClockAt(recoveredOrigin(s.epoch, newest))
	}
	// The periodic deadlines step on grids anchored here, which is also
	// the phase of the ticker that drives them.
	now := s.clock.Now()
	s.tickMu.Lock()
	s.nextSweep = now + s.cfg.sweepEvery().Seconds()
	s.nextRebalance = now + s.cfg.Rebalance.Seconds()
	s.tickMu.Unlock()
	for i, sh := range s.shards {
		if err := sh.resume(logs[i], now); err != nil {
			return fmt.Errorf("recovering %s (shard %d): %w", cmp.Or(s.cfg.DataDir, "replicated log"), i, err)
		}
		s.slots.Add(int64(sh.workerCount()))
	}
	s.restorePins()
	if journaled && s.cfg.Lease > 0 {
		// Leases whose deadline passed while the daemon was down expire
		// right now, before any worker traffic: the paper's machine
		// failure, not a silent zombie replica.
		for _, sh := range s.shards {
			if sh.recov != nil && !sh.recov.Fresh {
				sh.recov.LeasesExpired = sh.expireLeases()
			}
		}
	}
	return nil
}

// launch starts the goroutine that runs the periodic work, if there is
// any, ticking at its shortest cadence.
func (s *Server) launch() {
	var cadences []time.Duration
	if s.cfg.Lease > 0 {
		cadences = append(cadences, s.cfg.sweepEvery())
	}
	if s.rebalancing() {
		cadences = append(cadences, s.cfg.Rebalance)
	}
	if s.shards[0].jnl != nil {
		cadences = append(cadences, snapshotPoll)
	}
	if len(cadences) > 0 {
		go s.run(slices.Min(cadences))
	} else {
		close(s.done)
	}
}

// newShard builds shard i of n, restoring it from rec when journaled.
// The constructor locks the shard's mutex while initializing guarded
// state: no traffic can reach the shard yet, but the annotations on
// restore and the mutation sink want the lock held.
func (s *Server) newShard(i, n int, rec *journal.Recovered) (*shard, error) {
	cfg := s.cfg
	slots := cfg.MaxWorkers
	if n > 1 {
		// Give each shard headroom over its fair share: hash imbalance and
		// rebalancing moves concentrate workers, and slots released by
		// moved workers stay occupied until a reshard. The global
		// MaxWorkers cap is enforced by the reserve callback regardless.
		slots = cfg.MaxWorkers/n*2 + 64
		if slots > cfg.MaxWorkers {
			slots = cfg.MaxWorkers
		}
	}
	powers := make([]float64, slots)
	for j := range powers {
		powers[j] = cfg.WorkerPower
	}
	g := grid.NewCustom(grid.DefaultConfig(grid.Hom, grid.AlwaysUp), powers)
	polLabel := "policy"
	if n > 1 {
		polLabel = fmt.Sprintf("policy-%d", i)
	}
	pol := core.NewPolicy(cfg.Policy, rng.Root(cfg.Seed, polLabel))
	sh := &shard{
		idx:     i,
		n:       n,
		cfg:     cfg,
		clock:   s.clock,
		reserve: s.reserveSlot,
		release: s.releaseSlot,
		decLat:  NewLatencyRecorder(0),
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.g = g
	sh.workers = make(map[string]*workerState)
	sh.archived = make(map[int]int)
	if rec == nil {
		now := s.clock.Now()
		for _, m := range g.Machines {
			m.ForceFail(now) // slots join the grid when their worker registers
		}
		sh.sched = core.NewLiveScheduler(s.clock, g, pol, cfg.Sched, nil)
		sh.sched.OnBagDone = sh.archive
		return sh, nil
	}
	// Coarsen journaled lease renewals to an eighth of the lease: fine
	// enough that recovered expiry deadlines are within tolerance, coarse
	// enough that heartbeats don't dominate the log.
	sh.seenQuant = cfg.Lease.Seconds() / 8
	if sh.seenQuant <= 0 {
		sh.seenQuant = 1
	}
	if err := sh.restore(rec, pol); err != nil {
		return nil, err
	}
	return sh, nil
}

// reserveSlot claims one registration against the global MaxWorkers cap.
func (s *Server) reserveSlot() bool {
	for {
		c := s.slots.Load()
		if c >= int64(s.cfg.MaxWorkers) {
			return false
		}
		if s.slots.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// releaseSlot returns a registration (worker handed off between shards).
func (s *Server) releaseSlot() { s.slots.Add(-1) }

// restorePins rebuilds the worker→shard routing pins after recovery: a
// worker registered on several shards (it was moved at some point) is
// pinned to wherever it was seen last.
func (s *Server) restorePins() {
	type seen struct {
		shard    int
		lastSeen float64
	}
	best := make(map[string]seen)
	for _, sh := range s.shards {
		for id, last := range sh.pinnedWorkers() {
			if b, ok := best[id]; !ok || last > b.lastSeen {
				best[id] = seen{shard: sh.idx, lastSeen: last}
			}
		}
	}
	for id, b := range best {
		s.pins.Store(id, b.shard)
	}
}

// openShardLogs opens (or initializes) the per-shard journals under
// cfg.DataDir, enforcing the layout manifest: a directory written under a
// different shard count is refused and must be resharded first. A single
// shard keeps its journal at the directory root — the exact pre-sharding
// layout, so existing data directories keep working.
func openShardLogs(cfg Config, n int) ([]Log, []*journal.Recovered, error) {
	dir := cfg.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	man, ok, err := journal.ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		// No manifest: a fresh directory, or one written before manifests
		// existed (always single-shard, journal at the root).
		if legacy := dirHasJournal(dir); legacy && n != 1 {
			return nil, nil, fmt.Errorf(
				"serve: %s is laid out for 1 shard but -shards is %d; reshard it first (botserved -reshard %d)",
				dir, n, n)
		}
		if err := journal.WriteManifest(dir, journal.Manifest{Shards: n}); err != nil {
			return nil, nil, err
		}
	} else if man.Shards != n {
		return nil, nil, fmt.Errorf(
			"serve: %s is laid out for %d shards but -shards is %d; restart with -shards %d or reshard it first (botserved -reshard %d)",
			dir, man.Shards, n, man.Shards, n)
	}
	logs := make([]Log, n)
	recs := make([]*journal.Recovered, n)
	for i := 0; i < n; i++ {
		sdir := dir
		if n > 1 {
			sdir = filepath.Join(dir, journal.ShardDirName(i))
		}
		j, rec, err := journal.Open(journal.Options{
			Dir:          sdir,
			Fsync:        cfg.Fsync,
			SnapshotMTBF: cfg.SnapshotMTBF,
		})
		if err != nil {
			for _, l := range logs {
				if l != nil {
					l.Close()
				}
			}
			return nil, nil, err
		}
		logs[i], recs[i] = j, rec
	}
	return logs, recs, nil
}

// dirHasJournal reports whether dir contains a journal (its META epoch
// file marks one).
func dirHasJournal(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "META"))
	return err == nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the background goroutine and, when journaling, writes each
// shard's final snapshot and closes its journal so the next start recovers
// with zero replay. The HTTP handler stays usable for in-memory servers; a
// journaled server must not serve requests after Close.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	s.finalOnce.Do(func() {
		var errs []error
		for _, sh := range s.shards {
			if err := sh.finalize(); err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", sh.idx, err))
			}
		}
		s.finalErr = errors.Join(errs...)
	})
	return s.finalErr
}

// Recovery returns the startup recovery summary — nil when the server
// runs without a journal. With multiple shards it aggregates the
// per-shard summaries (Fresh only when every shard was fresh).
func (s *Server) Recovery() *RecoveryInfo {
	if s.shards[0].recov == nil {
		return nil
	}
	if len(s.shards) == 1 {
		return s.shards[0].recov
	}
	agg := &RecoveryInfo{Fresh: true}
	for _, sh := range s.shards {
		r := sh.recov
		if r == nil {
			continue
		}
		agg.Fresh = agg.Fresh && r.Fresh
		agg.RecordsReplayed += r.RecordsReplayed
		agg.SegmentsScanned += r.SegmentsScanned
		agg.TornBytes += r.TornBytes
		agg.SnapshotsSkipped += r.SnapshotsSkipped
		agg.DurationSec += r.DurationSec
		agg.Bags += r.Bags
		agg.CompletedBags += r.CompletedBags
		agg.Workers += r.Workers
		agg.Replicas += r.Replicas
		agg.LeasesExpired += r.LeasesExpired
		if r.SnapshotLSN > agg.SnapshotLSN {
			agg.SnapshotLSN = r.SnapshotLSN
		}
		if r.LastLSN > agg.LastLSN {
			agg.LastLSN = r.LastLSN
		}
	}
	return agg
}

// snapshotPoll is how often the periodic step asks each journal whether a
// snapshot is due.
const snapshotPoll = 250 * time.Millisecond

// sweepEvery is the lease-expiry cadence: a quarter lease, at least 10ms.
func (c Config) sweepEvery() time.Duration {
	return max(c.Lease/4, 10*time.Millisecond)
}

// run is the server's one background goroutine: it calls tick on the
// wall clock every interval until Close.
func (s *Server) run(every time.Duration) {
	defer close(s.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.tick(s.clock.Now())
		}
	}
}

// tick runs the periodic work due at now, in server-clock seconds: a lease
// sweep every sweepEvery, a rebalance round every cfg.Rebalance, and a
// snapshot of each journaled shard whose journal reports one due. Calls
// are serialized, which also serializes each journal's WriteSnapshot calls
// as the journal requires.
func (s *Server) tick(now float64) {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	if s.cfg.Lease > 0 && now >= s.nextSweep {
		s.nextSweep = nextDeadline(s.nextSweep, now, s.cfg.sweepEvery())
		for _, sh := range s.shards {
			sh.expireLeases()
		}
	}
	if s.rebalancing() && now >= s.nextRebalance {
		s.nextRebalance = nextDeadline(s.nextRebalance, now, s.cfg.Rebalance)
		s.rebalance()
	}
	for _, sh := range s.shards {
		if sh.jnl != nil && sh.jnl.SnapshotDue() {
			// Nothing to do on failure: the log keeps the error for
			// Metrics.Err and the snapshot stays due for the next tick.
			_ = sh.snapshot()
		}
	}
}

// nextDeadline returns the first step after now on the grid of steps of
// every from deadline: a late tick does not shift the cadence, and a clock
// jump runs the missed work once.
func nextDeadline(deadline, now float64, every time.Duration) float64 {
	step := every.Seconds()
	return deadline + (math.Floor((now-deadline)/step)+1)*step
}

// The four worker handlers are JSON adapters over the operation layer
// (ops.go): decode, run the operation, flush its durability obligation,
// encode.

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := readJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, wait, err := s.submit(req.Granularity, req.Works)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.flush([]wire.Pending{wait}); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse(res))
}

func (s *Server) handleBag(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		httpError(w, http.StatusBadRequest, "bad bag id")
		return
	}
	shIdx, local := ring.SplitBag(id, len(s.shards))
	st, ok := s.shards[shIdx].bagStatusLocal(local)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown bag")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	var req FetchRequest
	if err := readJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := s.fetch(r.PathValue("id"), req.Power)
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, errEmptyWorker) || errors.Is(err, errLongWorker) {
			status = http.StatusBadRequest
		}
		httpError(w, status, err.Error())
		return
	}
	resp := FetchResponse{Assigned: res.Assigned, RetryMs: res.RetryMs}
	if res.Assigned {
		resp.Assignment = &Assignment{Replica: res.Replica, Bag: res.Bag, Task: res.Task, Work: res.Work}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if err := readJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Status != StatusDone && req.Status != StatusFailed {
		httpError(w, http.StatusBadRequest, "status must be done or failed")
		return
	}
	ack, wait := s.report(r.PathValue("id"), req.Replica, req.Status == StatusFailed)
	if ack == wire.AckUnknown {
		httpError(w, http.StatusNotFound, "unknown worker")
		return
	}
	if err := s.flush([]wire.Pending{wait}); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ReportResponse{Ack: ack.String()})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := readJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ack := s.heartbeat(r.PathValue("id"), req.Replica)
	if ack == wire.AckUnknown {
		httpError(w, http.StatusNotFound, "unknown worker")
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Ack: ack.String()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Snapshot shards one at a time — stats never stops the world. The
	// merge (including the percentile sort) runs outside every lock.
	partials := make([]shardPartial, len(s.shards))
	for i, sh := range s.shards {
		partials[i] = sh.partial(true)
	}
	st := StatsResponse{
		Policy: s.cfg.Policy.String(),
		Now:    s.clock.Now(),
	}
	for _, p := range partials {
		st.Workers += p.workers
		st.LiveWorkers += p.live
		st.FreeWorkers += p.free
		st.PendingTasks += p.pending
		st.RunningReplicas += p.running
		st.BagsSubmitted += p.bagsSubmitted
		st.BagsCompleted += p.bagsCompleted
		st.TasksCompleted += p.tasksCompleted
		st.ReplicasStarted += p.replicasStarted
		st.ReplicasKilled += p.replicasKilled
		st.ReplicaFailures += p.replicaFailures
		st.LeaseExpiries += p.met.LeaseExpiries
		st.StaleReports += p.met.StaleReports
		st.Bags = append(st.Bags, p.bags...)
	}
	// Global IDs interleave across shards (local·N + shard); order the
	// merged list by ID, i.e. submission order, as one shard reports it.
	slices.SortFunc(st.Bags, func(a, b BagStatus) int { return cmp.Compare(a.Bag, b.Bag) })
	if len(s.shards) == 1 {
		// Single shard: the legacy wire shape, byte-compatible with the
		// pre-sharding server.
		st.Journal = partials[0].journal
		st.Recovery = s.shards[0].recov
	} else {
		st.ShardCount = len(s.shards)
		st.Rebalances = int(s.rebalances.Load())
		st.WorkerMoves = int(s.moves.Load())
		weights := s.ring.Load().Weights()
		for i, p := range partials {
			st.ShardStats = append(st.ShardStats, ShardStatus{
				Shard:           i,
				Weight:          weights[i],
				Workers:         p.workers,
				LiveWorkers:     p.live,
				FreeWorkers:     p.free,
				PendingTasks:    p.pending,
				RunningReplicas: p.running,
				ActiveBags:      p.activeBags,
				Journal:         p.journal,
				Recovery:        s.shards[i].recov,
			})
		}
	}
	if s.cfg.Replication != nil {
		rs := s.cfg.Replication.ReplicationStatus()
		st.Replication = &rs
	}
	st.DecisionLatency = s.decisionLatency()
	writeJSON(w, http.StatusOK, st)
}

// decisionLatency merges every shard's recorder into one summary.
func (s *Server) decisionLatency() LatencySummary {
	recs := make([]*LatencyRecorder, len(s.shards))
	for i, sh := range s.shards {
		recs[i] = sh.decLat
	}
	return MergeSummaries(recs...)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var doc struct {
		Counters counters `json:"counters"`
		Gauges   struct {
			PendingTasks    int `json:"pending_tasks"`
			RunningReplicas int `json:"running_replicas"`
			FreeWorkers     int `json:"free_workers"`
			ActiveBags      int `json:"active_bags"`
		} `json:"gauges"`
		Shards          int               `json:"shards,omitempty"`
		Rebalances      int               `json:"rebalances,omitempty"`
		WorkerMoves     int               `json:"worker_moves,omitempty"`
		Journal         *journal.Metrics  `json:"journal,omitempty"`
		Recovery        *RecoveryInfo     `json:"recovery,omitempty"`
		Replication     *replicate.Status `json:"replication,omitempty"`
		DecisionLatency LatencySummary    `json:"decision_latency"`
	}
	for _, sh := range s.shards {
		p := sh.partial(false)
		doc.Counters.add(p.met)
		doc.Gauges.PendingTasks += p.pending
		doc.Gauges.RunningReplicas += p.running
		doc.Gauges.FreeWorkers += p.free
		doc.Gauges.ActiveBags += p.activeBags
		if len(s.shards) == 1 {
			doc.Journal = p.journal
			doc.Recovery = sh.recov
		}
	}
	if len(s.shards) > 1 {
		doc.Shards = len(s.shards)
		doc.Rebalances = int(s.rebalances.Load())
		doc.WorkerMoves = int(s.moves.Load())
	}
	if s.cfg.Replication != nil {
		rs := s.cfg.Replication.ReplicationStatus()
		doc.Replication = &rs
	}
	doc.DecisionLatency = s.decisionLatency()
	writeJSON(w, http.StatusOK, doc)
}

// readJSON decodes a small JSON body; an empty body decodes to the zero
// value so workers can omit optional requests.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 10<<20))
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
