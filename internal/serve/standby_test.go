package serve

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
)

// standbyEntry is one record on its way from a leader to a follower.
type standbyEntry struct {
	lsn uint64
	rec journal.Record
}

// teeLog is a leader's journal that also hands every record it appends to
// a follower's stream, as a replication session does.
type teeLog struct {
	*journal.Journal
	out chan<- standbyEntry
}

func (l *teeLog) Append(r *journal.Record) (uint64, error) {
	lsn, err := l.Journal.Append(r)
	if err == nil {
		c := *r
		c.Works = slices.Clone(r.Works)
		l.out <- standbyEntry{lsn, c}
	}
	return lsn, err
}

// TestStandbyPromotion runs a follower's standby next to a leader: while
// the leader serves a workload, another goroutine replays every record the
// leader appends into the standby, then appends it to the follower's own
// journal, as replicate.Node does with OnEntry. Promoting the standby
// gives a server holding the leader's state, its replica tokens included,
// that keeps dispatching.
func TestStandbyPromotion(t *testing.T) {
	clk := &fakeClock{}
	cfg := Config{
		Policy:     core.FCFSShare,
		MaxWorkers: 4,
		Lease:      10 * time.Second,
		Clock:      clk,
	}.withDefaults()

	lj, lrec, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	// teeLog sends under the leader's shard mutex: the buffer holds every
	// record the workload below appends (a few hundred), so no send waits.
	entries := make(chan standbyEntry, 1<<14)
	lcfg := cfg
	lcfg.Log, lcfg.Recovered = &teeLog{Journal: lj, out: entries}, lrec
	leader, err := NewServer(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(leader)
	c := NewClient(ts.URL)

	fj, frec, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	standby, err := newServer(cfg, []*journal.Recovered{frec})
	if err != nil {
		t.Fatal(err)
	}
	fed := make(chan error, 1)
	go func() {
		for e := range entries {
			if err := standby.shards[0].applyEntry(e.lsn, &e.rec); err != nil {
				fed <- fmt.Errorf("standby refused entry %d: %w", e.lsn, err)
				for range entries {
				}
				return
			}
			if _, err := fj.Append(&e.rec); err != nil {
				fed <- err
				for range entries {
				}
				return
			}
		}
		fed <- nil
	}()

	held := map[string]uint64{} // worker -> the replica token it holds
	for round := 0; round < 40; round++ {
		if round%6 == 0 {
			if _, err := c.Submit(100, []float64{10, 20, 30, 40, 50}); err != nil {
				t.Fatal(err)
			}
		}
		for w := 0; w < 4; w++ {
			id := fmt.Sprintf("w%d", w)
			if tok, ok := held[id]; ok && (round+w)%3 != 0 {
				status := StatusDone
				if (round+w)%7 == 0 {
					status = StatusFailed
				}
				mustReport(t, c, id, tok, status)
				delete(held, id)
				continue
			}
			if resp := mustFetch(t, c, id); resp.Assigned {
				held[id] = resp.Assignment.Replica
			}
		}
		clk.advance(1)
	}
	for id, tok := range held {
		// A sibling's completion may have killed the replica since.
		if ack, err := c.Heartbeat(id, tok); err != nil || ack != AckOK {
			delete(held, id)
		}
	}
	if len(held) == 0 {
		t.Fatal("no worker holds a live replica at the handover")
	}
	want := mustStats(t, c)
	ts.Close()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	close(entries)
	if err := <-fed; err != nil {
		t.Fatal(err)
	}

	if err := standby.resume([]Log{fj}); err != nil {
		t.Fatalf("promoting the standby: %v", err)
	}
	standby.launch()
	ts2 := httptest.NewServer(standby)
	defer func() {
		ts2.Close()
		if err := standby.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	c2 := NewClient(ts2.URL)
	got := mustStats(t, c2)
	if got.Recovery == nil || uint64(got.Recovery.RecordsReplayed) != lj.LastLSN() || got.Recovery.LastLSN != lj.LastLSN() {
		t.Fatalf("promoted recovery %+v, leader wrote %d records", got.Recovery, lj.LastLSN())
	}
	type counts struct {
		Workers, Pending, Running, Submitted, Completed, Tasks, Started, Killed, Failures int
		Bags                                                                              []BagStatus
	}
	view := func(st StatsResponse) counts {
		return counts{st.Workers, st.PendingTasks, st.RunningReplicas, st.BagsSubmitted, st.BagsCompleted,
			st.TasksCompleted, st.ReplicasStarted, st.ReplicasKilled, st.ReplicaFailures, st.Bags}
	}
	if a, b := view(got), view(want); !reflect.DeepEqual(a, b) {
		t.Fatalf("promoted state diverges from the leader's\npromoted: %+v\nleader:   %+v", a, b)
	}
	if want.BagsCompleted == 0 || want.RunningReplicas == 0 || want.ReplicaFailures == 0 {
		t.Fatalf("the workload left nothing to check: %+v", view(want))
	}

	// The workers keep their replicas and tokens, and the promoted server
	// dispatches new work.
	for id, tok := range held {
		if ack, err := c2.Heartbeat(id, tok); err != nil || ack != AckOK {
			t.Fatalf("%s's heartbeat for replica %d after promotion: %s, %v", id, tok, ack, err)
		}
	}
	for id, tok := range held {
		if ack := mustReport(t, c2, id, tok, StatusDone); ack != AckOK {
			t.Fatalf("%s's report of replica %d after promotion: %s", id, tok, ack)
		}
		break
	}
	if _, err := c2.Submit(100, []float64{10}); err != nil {
		t.Fatal(err)
	}
	if resp := mustFetch(t, c2, "w0"); !resp.Assigned {
		t.Fatalf("the promoted server dispatched nothing: %+v", resp)
	}
}

// TestReplayRefusesWorkerContradictions feeds a recovering shard worker
// records that contradict its worker table: each is refused and leaves
// the table as it was.
func TestReplayRefusesWorkerContradictions(t *testing.T) {
	reg := func(id string, slot int) journal.Record {
		return journal.Record{Kind: journal.KindWorkerRegistered, Time: 1, Machine: slot, Worker: id, Power: 1}
	}
	for name, bad := range map[string]journal.Record{
		"worker moved slot":    reg("w0", 1),
		"slot already taken":   reg("other", 0),
		"slot out of order":    reg("w1", 2),
		"slot beyond the grid": reg("w1", 4),
		"seen, unregistered":   {Kind: journal.KindWorkerSeen, Time: 2, Machine: 1},
		"seen, off the grid":   {Kind: journal.KindWorkerSeen, Time: 2, Machine: -1},
	} {
		j, rec, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		s, err := newServer(Config{MaxWorkers: 4}.withDefaults(), []*journal.Recovered{rec})
		if err != nil {
			t.Fatal(err)
		}
		sh := s.shards[0]
		w0 := reg("w0", 0)
		if err := sh.applyEntry(1, &w0); err != nil {
			t.Fatal(err)
		}
		if err := sh.applyEntry(2, &bad); err == nil {
			t.Errorf("%s: the shard accepted it", name)
		}
		sh.mu.Lock()
		if len(sh.slots) != 1 || len(sh.workers) != 1 || sh.slots[0].m.ID != 0 || sh.slots[0].lastSeen != 1 || sh.lastLSN != 1 {
			t.Errorf("%s: the refusal changed the worker table: %d slots, last LSN %d", name, len(sh.slots), sh.lastLSN)
		}
		sh.mu.Unlock()
	}
}
