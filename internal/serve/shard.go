package serve

// The shard seam: one shard owns an independent slice of the dispatch
// plane — its own grid, its own core.LiveScheduler, its own journal, and
// its own lock. The Server routes each request to exactly one shard, so
// requests on distinct shards never contend: there is no global mutex on
// the dispatch hot path. Workers map to shards by consistent hashing
// (internal/shard ring), bags by striping their global IDs; shard-local
// bag IDs are translated at this boundary, so everything below speaks
// local IDs and everything on the wire speaks global ones.

import (
	"fmt"
	"sync"

	"botgrid/internal/core"
	"botgrid/internal/grid"
	"botgrid/internal/journal"
	ring "botgrid/internal/shard"
	"botgrid/internal/wire"
)

// workerState tracks one registered worker.
type workerState struct {
	id         string
	m          *grid.Machine
	power      float64
	lastSeen   float64 // server-clock seconds of the last fetch/report/heartbeat
	lastLogged float64 // lastSeen value most recently journaled (coarsened)
	released   bool    // handed off to another shard; slot is down and stays empty
}

// shard is one scheduler shard. All its scheduler state is guarded by mu;
// every request holds it for exactly one short critical section (the
// decision-latency metric measures it). Cross-shard coordination happens
// only outside mu: the router reads the ring, the rebalancer exchanges
// DemandSummaries one shard at a time.
type shard struct {
	idx   int // this shard's index
	n     int // total shards (bag-ID stripe factor)
	cfg   Config
	clock core.Clock

	// reserve and release account registered workers against the global
	// MaxWorkers cap without any shared lock (atomic CAS in the Server).
	reserve func() bool
	release func()

	decLat *LatencyRecorder

	// Journal state (nil/zero when the server runs in memory). jnl is the
	// shard's own journal under DataDir (shard-NNNN subdirectory, or the
	// directory root for a single shard), or the replication layer's
	// quorum log with Config.Log.
	jnl       Log
	recov     *RecoveryInfo
	seenQuant float64 // min seconds between journaled WorkerSeen per worker

	mu sync.Mutex
	//botlint:guarded-by mu
	g *grid.Grid
	//botlint:guarded-by mu
	sched *core.Scheduler
	//botlint:guarded-by mu
	workers map[string]*workerState
	//botlint:guarded-by mu
	slots []*workerState // workers by slot (machine ID), i.e. registration order
	//botlint:guarded-by mu
	met counters
	//botlint:guarded-by mu
	lastLSN uint64 // LSN of the newest record covering this shard's state
	//botlint:guarded-by mu
	completed []journal.CompletedBag // archive of finished bags in completion order (local IDs)
	//botlint:guarded-by mu
	archived map[int]int // local bag ID → index in completed
	//botlint:guarded-by mu
	newest float64 // newest event time recovered (snapshot or replayed record)
}

// globalBag translates a shard-local bag ID to the global ID on the wire.
func (sh *shard) globalBag(local int) int { return ring.GlobalBag(local, sh.idx, sh.n) }

// submit enters a bag and returns its global ID and task count plus the
// durability obligation the caller must flush before acknowledging.
func (sh *shard) submit(granularity float64, works []float64) (wire.SubmitResult, wire.Pending) {
	sh.mu.Lock()
	b := sh.sched.Submit(granularity, works)
	sh.met.Submits++
	wait := wire.Pending{Shard: sh.idx, LSN: sh.lastLSN}
	sh.mu.Unlock()
	return wire.SubmitResult{Bag: sh.globalBag(b.ID), Tasks: len(b.Tasks)}, wait
}

// worker returns the registered worker, creating it on first contact
// while slots remain — both this shard's and the global MaxWorkers cap.
//
//botlint:holds mu
func (sh *shard) worker(id string) (*workerState, error) {
	if w, ok := sh.workers[id]; ok {
		if w.released {
			// The ring moved this worker away and a late request raced the
			// handoff, or it moved back: re-claim the original slot.
			if !sh.reserve() {
				return nil, fmt.Errorf("worker capacity %d exhausted", sh.cfg.MaxWorkers)
			}
			w.released = false
		}
		return w, nil
	}
	slot := len(sh.workers)
	if slot >= len(sh.g.Machines) {
		return nil, fmt.Errorf("worker capacity %d exhausted", sh.cfg.MaxWorkers)
	}
	if !sh.reserve() {
		return nil, fmt.Errorf("worker capacity %d exhausted", sh.cfg.MaxWorkers)
	}
	w := &workerState{id: id, m: sh.g.Machines[slot], power: sh.cfg.WorkerPower}
	sh.workers[id] = w
	sh.slots = append(sh.slots, w)
	sh.journalWorker(w)
	return w, nil
}

// revive brings an absent worker's slot back into the grid.
//
//botlint:holds mu
func (sh *shard) revive(w *workerState) {
	if !w.m.Up() {
		w.m.ForceRepair(sh.clock.Now())
		sh.sched.MachineRepaired(w.m)
	}
}

// fetch serves one worker poll: lease renewal, registration on first
// contact, and the scheduler's two-step dispatch.
func (sh *shard) fetch(id string, power float64) (wire.FetchResult, error) {
	sh.mu.Lock()
	ws, err := sh.worker(id)
	if err != nil {
		sh.mu.Unlock()
		return wire.FetchResult{}, err
	}
	if power > 0 && power != ws.power {
		ws.power = power
		sh.journalWorker(ws)
	}
	sh.touch(ws)
	sh.revive(ws)
	var res wire.FetchResult
	if rep := sh.sched.ReplicaOn(ws.m); rep != nil {
		res = wire.FetchResult{
			Assigned: true,
			Replica:  rep.Seq,
			Bag:      sh.globalBag(rep.Task.Bag.ID),
			Task:     rep.Task.ID,
			Work:     rep.Task.Work,
		}
		sh.met.Assigned++
	} else {
		res = wire.FetchResult{RetryMs: sh.cfg.RetryMs}
		sh.met.NoWork++
	}
	sh.met.Fetches++
	sh.mu.Unlock()
	return res, nil
}

// report applies a done/failed report: AckUnknown for a worker never
// registered here, else AckOK or AckStale. Only an AckOK carries a
// durability obligation — the worker discards its copy of the result on
// OK, so the record must be durable first; stale reports changed nothing.
func (sh *shard) report(id string, replica uint64, failed bool) (wire.Ack, wire.Pending) {
	sh.mu.Lock()
	ws, ok := sh.workers[id]
	if !ok {
		sh.mu.Unlock()
		return wire.AckUnknown, wire.Pending{}
	}
	now := sh.touch(ws)
	ack, wait := wire.AckStale, wire.Pending{}
	if ws.released {
		// The worker was handed to another shard; whatever it reports here
		// was superseded by the move. Do not revive the abandoned slot.
	} else if !ws.m.Up() {
		// The lease expired mid-computation: the replica is already
		// dead and the task resubmitted. Rejoin the pool empty-handed.
		sh.revive(ws)
	} else if rep := sh.sched.ReplicaOn(ws.m); rep != nil && rep.Seq == replica {
		if failed {
			// A worker-reported failure gets the paper's machine-failure
			// treatment (kill + resubmit), then the slot rejoins the pool.
			ws.m.ForceFail(now)
			sh.sched.MachineFailed(ws.m)
			sh.revive(ws)
			sh.met.ReportsFailed++
		} else {
			sh.sched.CompleteReplica(rep)
			sh.met.ReportsDone++
		}
		ack, wait = wire.AckOK, wire.Pending{Shard: sh.idx, LSN: sh.lastLSN}
	}
	if ack == wire.AckStale {
		sh.met.StaleReports++
	}
	sh.mu.Unlock()
	return ack, wait
}

// heartbeat renews the worker's lease and validates its replica token.
func (sh *shard) heartbeat(id string, replica uint64) wire.Ack {
	sh.mu.Lock()
	ws, ok := sh.workers[id]
	if !ok {
		sh.mu.Unlock()
		return wire.AckUnknown
	}
	sh.touch(ws)
	ack := wire.AckStale
	if !ws.released && ws.m.Up() {
		if rep := sh.sched.ReplicaOn(ws.m); rep != nil && rep.Seq == replica {
			ack = wire.AckOK
		}
	}
	sh.met.Heartbeats++
	sh.mu.Unlock()
	return ack
}

// bagStatusLocal returns the status of the bag with the given local ID.
func (sh *shard) bagStatusLocal(local int) (BagStatus, bool) {
	sh.mu.Lock()
	st, ok := sh.bagStatusByID(local)
	sh.mu.Unlock()
	return st, ok
}

// bagStatusByID returns the status of a live bag or of one in the
// archive.
//
//botlint:holds mu
func (sh *shard) bagStatusByID(local int) (BagStatus, bool) {
	if i, ok := sh.archived[local]; ok {
		return sh.completedStatus(sh.completed[i]), true
	}
	b := sh.sched.Bag(local)
	if b == nil {
		return BagStatus{}, false
	}
	return sh.liveStatus(b), true
}

// liveStatus is the status of an unfinished bag, translating its local ID
// to the global one.
//
//botlint:holds mu
func (sh *shard) liveStatus(b *core.Bag) BagStatus {
	return BagStatus{
		Bag:         sh.globalBag(b.ID),
		Granularity: b.Granularity,
		Tasks:       len(b.Tasks),
		Done:        b.DoneTasks(),
		Arrival:     b.Arrival,
		DoneAt:      -1,
		Turnaround:  -1,
	}
}

// completedStatus is the status of an archived bag, translating its local
// ID to the global one.
func (sh *shard) completedStatus(cb journal.CompletedBag) BagStatus {
	return BagStatus{
		Bag:         sh.globalBag(cb.ID),
		Granularity: cb.Granularity,
		Tasks:       cb.Tasks,
		Done:        cb.Tasks,
		Completed:   true,
		Arrival:     cb.Arrival,
		DoneAt:      cb.DoneAt,
		Turnaround:  cb.DoneAt - cb.Arrival,
	}
}

// archive is the scheduler's OnBagDone hook, in memory and journaled
// alike: a finished bag's final status moves into the archive and its
// *core.Bag, tasks and replica arrays leave memory. Runs under mu, inside
// the scheduler call that completed the bag.
//
//botlint:holds mu
func (sh *shard) archive(b *core.Bag) {
	sh.archived[b.ID] = len(sh.completed)
	sh.completed = append(sh.completed, journal.CompletedBag{
		ID:          b.ID,
		Arrival:     b.Arrival,
		Granularity: b.Granularity,
		DoneAt:      b.DoneAt,
		Tasks:       len(b.Tasks),
	})
}

// expireLeases declares every worker silent for longer than the lease
// failed — replica killed, task resubmitted, slot removed from the free
// pool — and returns how many expired. Released slots are already down
// and do not count. Workers expire in slot order, so the order in which
// their resubmitted tasks re-enter the queue front is reproducible.
func (sh *shard) expireLeases() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := sh.clock.Now()
	lease := sh.cfg.Lease.Seconds()
	n := 0
	for _, w := range sh.slots {
		if w.m.Up() && now-w.lastSeen > lease {
			w.m.ForceFail(now)
			sh.sched.MachineFailed(w.m)
			sh.met.LeaseExpiries++
			n++
		}
	}
	return n
}

// releaseIfIdle hands worker id off the shard when it holds no replica:
// the slot is failed out of the free pool (so nothing gets dispatched to
// it) and marked released so reports for it stay stale and lease expiry
// ignores it. Returns false — and changes nothing — while the worker
// still computes a replica here, or was never registered here.
func (sh *shard) releaseIfIdle(id string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	w, ok := sh.workers[id]
	if !ok {
		return true // nothing registered here; the move is free
	}
	if w.released {
		return true
	}
	if w.m.Up() && sh.sched.ReplicaOn(w.m) != nil {
		return false // mid-computation: the lease must finish or expire first
	}
	if w.m.Up() {
		w.m.ForceFail(sh.clock.Now())
		sh.sched.MachineFailed(w.m)
	}
	w.released = true
	sh.release()
	return true
}

// demand summarizes this shard's outstanding work for the rebalancer.
func (sh *shard) demand() core.DemandSummary {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sched.DemandSummary(sh.clock.Now())
}

// workerCount returns how many workers hold a slot here (released
// included: their slot stays occupied until the journal is resharded).
func (sh *shard) workerCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.workers)
}

// pinnedWorkers lists restored worker IDs with their last-seen times so
// the Server can rebuild routing pins after recovery. Called from
// NewServer before any traffic.
func (sh *shard) pinnedWorkers() map[string]float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[string]float64, len(sh.workers))
	for id, w := range sh.workers {
		out[id] = w.lastSeen
	}
	return out
}

// shardPartial is one shard's contribution to /v1/stats and /metrics,
// captured under that shard's lock alone and merged by the router outside
// any lock.
type shardPartial struct {
	workers, live, free, pending, running int
	bagsSubmitted, bagsCompleted          int
	tasksCompleted                        int
	replicasStarted, replicasKilled       int
	replicaFailures                       int
	activeBags                            int
	met                                   counters
	bags                                  []BagStatus
	journal                               *journal.Metrics
}

// partial snapshots the shard's stats. withBags controls whether the full
// per-bag status list is built (stats wants it, metrics does not).
func (sh *shard) partial(withBags bool) shardPartial {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := shardPartial{
		workers:         len(sh.workers),
		free:            sh.sched.FreeMachines(),
		pending:         sh.sched.PendingTasks(),
		running:         sh.sched.RunningReplicas(),
		bagsSubmitted:   sh.sched.Submitted(),
		bagsCompleted:   sh.sched.Completed(),
		tasksCompleted:  sh.sched.TasksCompleted(),
		replicasStarted: sh.sched.ReplicasStarted(),
		replicasKilled:  sh.sched.ReplicasKilled(),
		replicaFailures: sh.sched.ReplicaFailures(),
		activeBags:      len(sh.sched.Bags()),
		met:             sh.met,
	}
	for _, ws := range sh.workers {
		if ws.m.Up() {
			p.live++
		}
	}
	if withBags {
		// Unordered: the router sorts the merged list by global ID.
		live := sh.sched.Bags()
		p.bags = make([]BagStatus, 0, len(sh.completed)+len(live))
		for _, cb := range sh.completed {
			p.bags = append(p.bags, sh.completedStatus(cb))
		}
		for _, b := range live {
			p.bags = append(p.bags, sh.liveStatus(b))
		}
	}
	if sh.jnl != nil {
		m := sh.jnl.Metrics()
		p.journal = &m
	}
	return p
}
