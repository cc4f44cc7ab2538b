package serve

// Journal glue: this file wires the durability subsystem (internal/journal)
// into the dispatch shards. Each shard journals every scheduler mutation
// plus its own worker-table events into its own log, snapshots its
// complete state on the journal's Young-formula cadence, and rebuilds
// everything from disk in NewServer after a crash. A sharded data
// directory holds one journal per shard plus a layout manifest; recovery
// replays the N journals independently.

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
)

// Log is the record log a shard journals through. *journal.Journal is
// the standalone implementation (WaitDurable = local fsync); the
// replication layer's *replicate.Replica is the clustered one (WaitDurable
// = durable on a quorum of nodes). The shard treats both identically:
// append under mu, wait for durability before acking, snapshot when the
// log reports one due on its Young-formula cadence, close on shutdown.
// WriteSnapshot keeps a failure for Metrics().Err as well as returning it.
type Log interface {
	Append(r *journal.Record) (uint64, error)
	WaitDurable(lsn uint64) error
	Metrics() journal.Metrics
	WriteSnapshot(lsn uint64, st *journal.State) error
	SnapshotDue() bool
	Close() error
}

// RecoveryInfo summarizes what NewServer rebuilt from one shard's journal
// at startup. It is served verbatim on /v1/stats and /metrics so operators
// can see how the last restart went.
type RecoveryInfo struct {
	// Fresh is true when the data directory was newly initialized (nothing
	// to recover).
	Fresh bool `json:"fresh"`
	// SnapshotLSN is the snapshot recovery started from (0: full replay).
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// LastLSN is the newest valid journal record found.
	LastLSN uint64 `json:"last_lsn"`
	// RecordsReplayed counts log records applied on top of the snapshot.
	RecordsReplayed int `json:"records_replayed"`
	// SegmentsScanned counts log segments read.
	SegmentsScanned int `json:"segments_scanned"`
	// TornBytes is the half-written tail truncated from the log, if any.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// SnapshotsSkipped counts corrupt snapshots ignored for older ones.
	SnapshotsSkipped int `json:"snapshots_skipped,omitempty"`
	// DurationSec is how long recovery took.
	DurationSec float64 `json:"duration_sec"`
	// Bags/CompletedBags/Workers/Replicas count the restored state:
	// active bags, archived finished bags, worker registrations, and
	// in-flight replica leases re-armed for their original workers.
	Bags          int `json:"bags_restored"`
	CompletedBags int `json:"completed_bags"`
	Workers       int `json:"workers_restored"`
	Replicas      int `json:"replicas_restored"`
	// LeasesExpired counts workers whose lease deadline passed while the
	// daemon was down; they were declared failed immediately at startup.
	LeasesExpired int `json:"leases_expired_on_recovery"`
}

// recoveredOrigin picks the wall-clock origin for a recovered timeline:
// the journal's persisted epoch, shifted back if needed so the clock never
// runs behind the newest replayed event time (host clock skew, a data dir
// moved between machines). For a sharded directory the epoch is shared
// (all shard journals are created together) and maxTime is the newest
// event across every shard.
func recoveredOrigin(epoch time.Time, maxTime float64) time.Time {
	origin := epoch
	if maxTime > 0 {
		latest := time.Now().Add(-time.Duration(maxTime * float64(time.Second)))
		if origin.After(latest) {
			origin = latest
		}
	}
	return origin
}

// restore rebuilds the shard from its recovered journal without writing
// to it: the snapshot through core.RestoreLiveScheduler, then the log
// tail through replay. Machines stay up, the scheduler replaying and the
// clock unread until resume. Runs before any request can arrive, so the
// constructor owns the state exclusively — annotated as holding mu to
// make that exclusivity explicit at the call site.
//
//botlint:holds mu
func (sh *shard) restore(rec *journal.Recovered, pol core.Policy) error {
	start := time.Now()
	st := rec.State
	sched, err := core.RestoreLiveScheduler(sh.clock, sh.g, pol, sh.cfg.Sched, nil, st.Sched)
	if err != nil {
		return err
	}
	sh.sched = sched
	sched.OnBagDone = sh.archive
	for _, w := range st.Workers {
		if err := sh.restoreWorker(w.ID, w.Machine, w.Power, w.LastSeen); err != nil {
			return err
		}
	}
	sh.completed = st.Completed
	for i, cb := range sh.completed {
		sh.archived[cb.ID] = i
	}
	if len(st.Service) > 0 {
		// Dispatch counters ride along in the snapshot's opaque service
		// blob; best-effort — stats continuity never blocks recovery.
		json.Unmarshal(st.Service, &sh.met)
	}
	sh.newest = st.Time
	sh.lastLSN = rec.LastLSN
	sh.recov = &RecoveryInfo{
		Fresh:            rec.Fresh,
		SnapshotLSN:      rec.SnapshotLSN,
		SegmentsScanned:  rec.SegmentsScanned,
		TornBytes:        rec.TornBytes,
		SnapshotsSkipped: rec.SnapshotsSkipped,
	}
	err = rec.Replay(sh.replay)
	sh.recov.DurationSec = (rec.Elapsed + time.Since(start)).Seconds()
	return err
}

// restoreWorker registers a recovered worker on the next slot.
// Registration order assigns slots sequentially, so slot i belongs to the
// i-th registered worker; anything else means the journal was written
// under a different worker-table scheme.
//
//botlint:holds mu
func (sh *shard) restoreWorker(id string, slot int, power, lastSeen float64) error {
	if slot != len(sh.slots) || slot >= len(sh.g.Machines) {
		return fmt.Errorf("worker %q on slot %d of %d (MaxWorkers changed?)",
			id, slot, len(sh.g.Machines))
	}
	ws := &workerState{id: id, m: sh.g.Machines[slot], power: power, lastSeen: lastSeen, lastLogged: lastSeen}
	sh.workers[id] = ws
	sh.slots = append(sh.slots, ws)
	return nil
}

// replay applies the journaled record with LSN lsn to the recovering
// shard. The shard interprets the two worker kinds itself; every other
// record goes to the scheduler's own replay (core.Scheduler.Replay),
// which refuses a kind it does not know. A refused record changes
// nothing.
//
//botlint:holds mu
func (sh *shard) replay(lsn uint64, r *journal.Record) error {
	switch r.Kind {
	case journal.KindWorkerRegistered:
		ws, ok := sh.workers[r.Worker]
		switch {
		case ok && ws.m.ID != r.Machine:
			return fmt.Errorf("worker %q moved slot %d -> %d", r.Worker, ws.m.ID, r.Machine)
		case ok:
			ws.power = r.Power
			ws.lastSeen, ws.lastLogged = r.Time, r.Time
		case r.Machine >= 0 && r.Machine < len(sh.slots):
			return fmt.Errorf("slot %d taken by %q, claimed by %q", r.Machine, sh.slots[r.Machine].id, r.Worker)
		default:
			if err := sh.restoreWorker(r.Worker, r.Machine, r.Power, r.Time); err != nil {
				return err
			}
		}
	case journal.KindWorkerSeen:
		if r.Machine < 0 || r.Machine >= len(sh.slots) {
			return fmt.Errorf("seen record for unregistered slot %d", r.Machine)
		}
		if ws := sh.slots[r.Machine]; r.Time > ws.lastSeen {
			ws.lastSeen, ws.lastLogged = r.Time, r.Time
		}
	default:
		m := r.Mutation()
		if err := sh.sched.Replay(&m); err != nil {
			return err
		}
	}
	sh.newest = max(sh.newest, r.Time)
	sh.lastLSN = lsn
	sh.recov.RecordsReplayed++
	return nil
}

// applyEntry replays one replicated record into a follower's standby.
func (sh *shard) applyEntry(lsn uint64, r *journal.Record) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.replay(lsn, r)
}

// resume ends a recovered shard's replay at server time now and journals
// through jnl from then on. The clock must not run behind anything
// replayed. A machine is up exactly while it hosts a replica: its lease
// is still live and its worker may still report the result, while every
// other slot waits for its worker to come back. A shard that recovered
// nothing (in memory) has nothing to resume.
func (sh *shard) resume(jnl Log, now float64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.recov == nil {
		return nil
	}
	if now < sh.newest {
		return fmt.Errorf("clock %.3f runs behind journaled time %.3f", now, sh.newest)
	}
	for _, m := range sh.g.Machines {
		if busy := sh.sched.ReplicaOn(m) != nil; busy && !m.Up() {
			m.ForceRepair(now)
		} else if !busy && m.Up() {
			m.ForceFail(now)
		}
	}
	if err := sh.sched.EndReplay(); err != nil {
		return err
	}
	sh.jnl = jnl
	sh.sched.SetMutationSink(sh.journalMutation)
	r := sh.recov
	r.Fresh = r.Fresh && sh.lastLSN == 0
	r.LastLSN, r.Bags, r.CompletedBags = sh.lastLSN, len(sh.sched.Bags()), len(sh.completed)
	r.Workers, r.Replicas = len(sh.workers), sh.sched.RunningReplicas()
	return nil
}

// journalMutation is the scheduler's mutation sink: every state transition
// becomes one journal record. Runs synchronously under mu, inside the
// scheduler call that caused the mutation.
//
//botlint:holds mu
func (sh *shard) journalMutation(m core.Mutation) {
	r := journal.FromMutation(m)
	sh.appendRec(&r)
}

// journalWorker records a worker's slot binding (or power change). No-op
// without a journal.
//
//botlint:holds mu
func (sh *shard) journalWorker(ws *workerState) {
	if sh.jnl == nil {
		return
	}
	now := sh.clock.Now()
	ws.lastLogged = now
	sh.appendRec(&journal.Record{
		Kind:    journal.KindWorkerRegistered,
		Time:    now,
		Machine: ws.m.ID,
		Worker:  ws.id,
		Power:   ws.power,
	})
}

// touch marks the worker alive now, journaling a coarsened WorkerSeen
// record at most every seenQuant seconds so recovered lease deadlines are
// accurate without heartbeats dominating the log. Returns the current
// time.
//
//botlint:holds mu
func (sh *shard) touch(ws *workerState) float64 {
	now := sh.clock.Now()
	ws.lastSeen = now
	if sh.jnl != nil && now-ws.lastLogged >= sh.seenQuant {
		ws.lastLogged = now
		sh.appendRec(&journal.Record{Kind: journal.KindWorkerSeen, Time: now, Machine: ws.m.ID})
	}
	return now
}

// appendRec appends one record, tracking the newest LSN covering the
// shard's state. Append errors are not surfaced here — the journal holds
// its first fatal error and waitDurable reports it to the requests that
// need durability.
//
//botlint:holds mu
//botlint:hotpath
func (sh *shard) appendRec(r *journal.Record) {
	if lsn, err := sh.jnl.Append(r); err == nil {
		sh.lastLSN = lsn
	}
}

// waitDurable blocks until record lsn is on disk per the journal's fsync
// mode. Called after releasing mu, before acknowledging a request whose
// effect must survive a crash. No-op without a journal.
func (sh *shard) waitDurable(lsn uint64) error {
	if sh.jnl == nil {
		return nil
	}
	return sh.jnl.WaitDurable(lsn)
}

// snapshot writes the complete shard state as a journal snapshot.
func (sh *shard) snapshot() error {
	sh.mu.Lock()
	st, lsn := sh.captureStateLocked()
	sh.mu.Unlock()
	return sh.jnl.WriteSnapshot(lsn, st)
}

// captureStateLocked builds the durable State and the LSN it covers: all
// journaling happens under mu, so lastLSN is exactly the newest record
// reflected in the captured state.
//
//botlint:holds mu
func (sh *shard) captureStateLocked() (*journal.State, uint64) {
	st := &journal.State{
		Time:      sh.clock.Now(),
		Sched:     sh.sched.SnapshotState(),
		Workers:   make([]journal.WorkerSnapshot, 0, len(sh.slots)),
		Completed: slices.Clone(sh.completed),
	}
	// Slot order == registration order; restore depends on it.
	for _, ws := range sh.slots {
		st.Workers = append(st.Workers, journal.WorkerSnapshot{
			ID:       ws.id,
			Machine:  ws.m.ID,
			Power:    ws.power,
			LastSeen: ws.lastSeen,
		})
	}
	if blob, err := json.Marshal(sh.met); err == nil {
		st.Service = blob
	}
	return st, sh.lastLSN
}

// finalize writes the shutdown snapshot and closes the journal: the next
// start recovers from the snapshot alone, with zero log replay.
func (sh *shard) finalize() error {
	if sh.jnl == nil {
		return nil
	}
	snapErr := sh.snapshot()
	closeErr := sh.jnl.Close()
	if snapErr != nil {
		return fmt.Errorf("final snapshot: %w", snapErr)
	}
	return closeErr
}
