package serve

// Offline resharding: rewriting a data directory's journal layout for a
// different shard count. A sharded directory can only be recovered by the
// exact shard count that wrote it (bag striping and worker placement are
// keyed on N), so changing -shards is a maintenance operation: stop the
// daemon, run Reshard (botserved -reshard N), start with the new count.
//
// Reshard merges every old shard's recovered state, re-splits bags and
// the completed-bag archive by the new striping, and writes one fresh
// snapshot-only journal per new shard. In-flight replicas do not survive:
// running tasks are demoted to pending at the front of their bag's queue
// with the restart flag set — exactly the paper's machine-failure
// treatment — and the worker table is dropped; workers re-register on
// their next fetch and are re-placed by the new ring. Acked state (bags,
// completed tasks, finished-bag turnarounds) is preserved exactly.
//
// The rewrite is staged under reshard-tmp/ and swapped in at the end. The
// swap itself is not crash-atomic; this is an offline tool run by an
// operator who can rerun it (the staging directory is rebuilt from
// scratch every run, and the old layout is only deleted after staging
// succeeded).

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
	ring "botgrid/internal/shard"
)

// Reshard rewrites the journal layout under dir for newN shards. The
// directory must not be in use by a running server.
func Reshard(dir string, newN int, fsync journal.FsyncMode) error {
	if newN < 1 {
		return fmt.Errorf("serve: reshard: shard count %d must be >= 1", newN)
	}
	man, ok, err := journal.ReadManifest(dir)
	if err != nil {
		return err
	}
	oldN := 1
	switch {
	case ok:
		oldN = man.Shards
	case !dirHasJournal(dir):
		return fmt.Errorf("serve: reshard: %s holds no journal", dir)
	}
	if oldN == newN {
		// Still (re)write the manifest: a pre-manifest single-shard
		// directory becomes explicitly labeled.
		return journal.WriteManifest(dir, journal.Manifest{Shards: newN})
	}

	// Recover every old shard's state (read-only: nothing is appended).
	states := make([]*journal.State, oldN)
	var epoch time.Time
	for s := 0; s < oldN; s++ {
		sdir := dir
		if oldN > 1 {
			sdir = filepath.Join(dir, journal.ShardDirName(s))
		}
		st, ep, err := recoverState(sdir, fsync)
		if err != nil {
			return fmt.Errorf("serve: reshard: shard %d: %w", s, err)
		}
		states[s] = st
		if s == 0 {
			epoch = ep
		}
	}

	merged, err := mergeStates(states, oldN, newN)
	if err != nil {
		return err
	}

	// Stage the new layout, then swap.
	tmp := filepath.Join(dir, "reshard-tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	for s := 0; s < newN; s++ {
		sdir := filepath.Join(tmp, journal.ShardDirName(s))
		j, _, err := journal.Open(journal.Options{Dir: sdir, Fsync: fsync, Epoch: epoch})
		if err != nil {
			return fmt.Errorf("serve: reshard: staging shard %d: %w", s, err)
		}
		snapErr := j.WriteSnapshot(0, merged[s])
		closeErr := j.Close()
		if snapErr != nil {
			return fmt.Errorf("serve: reshard: staging shard %d: %w", s, snapErr)
		}
		if closeErr != nil {
			return fmt.Errorf("serve: reshard: staging shard %d: %w", s, closeErr)
		}
	}
	if err := removeOldLayout(dir, oldN); err != nil {
		return err
	}
	if newN > 1 {
		for s := 0; s < newN; s++ {
			name := journal.ShardDirName(s)
			if err := os.Rename(filepath.Join(tmp, name), filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	} else {
		// Single shard lives at the directory root (the legacy layout).
		src := filepath.Join(tmp, journal.ShardDirName(0))
		ents, err := os.ReadDir(src)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if err := os.Rename(filepath.Join(src, e.Name()), filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	return journal.WriteManifest(dir, journal.Manifest{Shards: newN})
}

// recoverState recovers one old shard the way NewServer does — the
// snapshot restored, the tail replayed through the scheduler — and
// returns its state as of its newest event, with the journal's epoch.
// Nothing is appended.
func recoverState(dir string, fsync journal.FsyncMode) (_ *journal.State, _ time.Time, err error) {
	j, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: fsync})
	if err != nil {
		return nil, time.Time{}, err
	}
	defer func() { err = errors.Join(err, j.Close()) }()
	// The worker count the old server ran with is not recorded; give the
	// shard a slot for every machine the journal names.
	slots := len(rec.State.Workers)
	if err := rec.Replay(func(_ uint64, r *journal.Record) error {
		slots = max(slots, r.Machine+1)
		return nil
	}); err != nil {
		return nil, time.Time{}, err
	}
	s, err := newServer(Config{MaxWorkers: max(slots, 1)}.withDefaults(), []*journal.Recovered{rec})
	if err != nil {
		return nil, time.Time{}, err
	}
	sh := s.shards[0]
	sh.mu.Lock()
	st, _ := sh.captureStateLocked()
	st.Time = sh.newest
	sh.mu.Unlock()
	return st, rec.Epoch, nil
}

// mergeStates folds oldN per-shard states into newN, re-striping bag IDs.
func mergeStates(states []*journal.State, oldN, newN int) ([]*journal.State, error) {
	out := make([]*journal.State, newN)
	for s := range out {
		out[s] = journal.NewState()
	}

	// The first local ID each new shard may issue: past every existing
	// global ID, identical on every shard so round-robin submission keeps
	// global IDs dense.
	maxGlobal := -1
	var maxTime float64
	var met counters
	for oldIdx, st := range states {
		for _, bs := range st.Sched.Bags {
			if g := ring.GlobalBag(bs.ID, oldIdx, oldN); g > maxGlobal {
				maxGlobal = g
			}
		}
		for _, cb := range st.Completed {
			if g := ring.GlobalBag(cb.ID, oldIdx, oldN); g > maxGlobal {
				maxGlobal = g
			}
		}
		maxTime = max(maxTime, st.Time)
		if len(st.Service) > 0 {
			var c counters
			if json.Unmarshal(st.Service, &c) == nil {
				met.add(c)
			}
		}
	}
	nextLocal := (maxGlobal + newN) / newN // ceil((maxGlobal+1)/newN), 0 when empty

	for oldIdx, st := range states {
		for _, bs := range st.Sched.Bags {
			newShard, local := ring.SplitBag(ring.GlobalBag(bs.ID, oldIdx, oldN), newN)
			nb := bs // shallow copy; Tasks/Pending rebuilt below
			nb.ID = local
			nb.Tasks = slices.Clone(bs.Tasks)
			// Replicas do not survive a reshard: demote running tasks to
			// pending resubmissions at the queue front (WQR-FT's failure
			// rule), ahead of the previously queued tasks in their order.
			var front []int
			for i := range nb.Tasks {
				t := &nb.Tasks[i]
				if t.State == core.TaskRunning {
					t.State = core.TaskPending
					t.Restart = true
					t.IdleSince = st.Time
					front = append(front, i)
				}
			}
			nb.Pending = append(front, slices.Clone(bs.Pending)...)
			out[newShard].Sched.Bags = append(out[newShard].Sched.Bags, nb)
		}
		for _, cb := range st.Completed {
			newShard, local := ring.SplitBag(ring.GlobalBag(cb.ID, oldIdx, oldN), newN)
			nc := cb
			nc.ID = local
			out[newShard].Completed = append(out[newShard].Completed, nc)
		}
		// Global dispatch counters are additive; they all land on shard 0
		// (splitting them per shard would invent per-shard history that
		// never happened).
		sc := out[0].Sched
		sc.Submitted += st.Sched.Submitted
		sc.Completed += st.Sched.Completed
		sc.TasksCompleted += st.Sched.TasksCompleted
		sc.ReplicasStarted += st.Sched.ReplicasStarted
		sc.ReplicasKilled += st.Sched.ReplicasKilled
		sc.Failures += st.Sched.Failures
	}
	blob, err := json.Marshal(met)
	if err != nil {
		return nil, err
	}
	for s, st := range out {
		st.Time = maxTime
		st.Sched.NextBagID = nextLocal
		slices.SortFunc(st.Sched.Bags, func(a, b core.BagSnapshot) int { return a.ID - b.ID })
		slices.SortFunc(st.Completed, func(a, b journal.CompletedBag) int {
			if a.DoneAt != b.DoneAt {
				if a.DoneAt < b.DoneAt {
					return -1
				}
				return 1
			}
			return a.ID - b.ID
		})
		if s == 0 {
			st.Service = blob
		}
	}
	return out, nil
}

// removeOldLayout deletes the pre-reshard journal files: the per-shard
// directories, or the root-level journal for a single-shard layout.
func removeOldLayout(dir string, oldN int) error {
	if oldN > 1 {
		for s := 0; s < oldN; s++ {
			if err := os.RemoveAll(filepath.Join(dir, journal.ShardDirName(s))); err != nil {
				return err
			}
		}
		return nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if name == "META" || filepath.Ext(name) == ".wal" || filepath.Ext(name) == ".snap" {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
