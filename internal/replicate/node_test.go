package replicate

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"botgrid/internal/journal"
)

// TestFollowerRefusesEntryBeforeAppend: an entry the standby refuses never
// reaches the follower's journal, so the log reopens without it — and
// with every entry before it.
func TestFollowerRefusesEntryBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(Config{NodeID: "a", Peers: []Peer{{ID: "a", Addr: "127.0.0.1:0"}}, Dir: dir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var applied []uint64
	n.cb.OnEntry = func(lsn uint64, r *journal.Record) error {
		if r.Kind == journal.KindTaskCompleted {
			return errors.New("completion of a task that is not running")
		}
		applied = append(applied, lsn)
		return nil
	}
	s := &session{}
	n.mu.Lock()
	n.cur = s
	n.mu.Unlock()
	good := journal.Record{Kind: journal.KindBagSubmitted, Time: 1, Bag: 0, Granularity: 10, Works: []float64{5}}
	bad := journal.Record{Kind: journal.KindTaskCompleted, Time: 2, Bag: 0, Task: 0, Seq: 1}
	if err := n.applyEntry(s, entryPayload(1, 1, &good)); err != nil {
		t.Fatal(err)
	}
	if err := n.applyEntry(s, entryPayload(1, 2, &bad)); err == nil {
		t.Fatal("the follower took an entry its standby refused")
	}
	n.mu.Lock()
	last := n.lastLSN
	n.cur = nil // the session has no connection for Stop to close
	n.mu.Unlock()
	if last != 1 || len(applied) != 1 {
		t.Fatalf("after the refusal: last LSN %d, standby applied %v", last, applied)
	}
	if err := n.Stop(); err != nil {
		t.Fatal(err)
	}
	j, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("the follower's log does not reopen: %v", err)
	}
	defer j.Close()
	if rec.LastLSN != 1 || rec.Records != 1 {
		t.Fatalf("reopened log: last LSN %d, %d records; want the one accepted entry", rec.LastLSN, rec.Records)
	}
}

// TestFollowerAppendFailureIsFatal: an entry the standby took but the
// journal then refused leaves the standby holding a record the log lacks,
// so the node turns fatal and its election clock never promotes it.
func TestFollowerAppendFailureIsFatal(t *testing.T) {
	n, err := Open(Config{NodeID: "a", Peers: []Peer{{ID: "a", Addr: "127.0.0.1:0"}}, Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	applied, promoted := 0, false
	n.cb.OnEntry = func(uint64, *journal.Record) error { applied++; return nil }
	n.cb.OnLeader = func(*Replica) error { promoted = true; return errors.New("promoted") }
	s := &session{}
	n.mu.Lock()
	n.cur = s
	err = n.jnl.Close()
	n.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	rec := journal.Record{Kind: journal.KindBagSubmitted, Time: 1, Bag: 0, Granularity: 10, Works: []float64{5}}
	if err := n.applyEntry(s, entryPayload(1, 1, &rec)); err == nil {
		t.Fatal("a closed journal took the entry")
	}
	if applied != 1 || n.Err() == nil {
		t.Fatalf("standby applied %d entries, node error %v; want 1 and a fatal error", applied, n.Err())
	}
	n.mu.Lock()
	n.cur = nil // the session has no connection to close
	n.mu.Unlock()
	n.runElection()
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	if role != RoleFollower || promoted {
		t.Fatalf("after the failed append the node is %v (promoted %v); want a follower", role, promoted)
	}
	// The status /v1/stats and /metrics serve shows the error, on the
	// follower path and on the leader path.
	if st := n.ReplicationStatus(); st.Fatal == "" || st.Fatal != n.Err().Error() {
		t.Fatalf("follower status reports fatal %q, node error %v", st.Fatal, n.Err())
	}
	jnl, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	rep := newReplica(n.cfg, 1, jnl, 0)
	defer rep.Close()
	n.mu.Lock()
	n.rep = rep
	n.mu.Unlock()
	if st := n.ReplicationStatus(); st.Role != RoleLeader.String() || st.Fatal != n.Err().Error() {
		t.Fatalf("leader status is %s with fatal %q, node error %v", st.Role, st.Fatal, n.Err())
	}
	n.mu.Lock()
	n.rep = nil
	n.mu.Unlock()
	if err := n.Stop(); err != nil && !errors.Is(err, journal.ErrClosed) {
		t.Fatal(err)
	}
}

// TestFollowerTermWriteFailsBeforeStandby: the first entry of a new term
// must persist that term (the TERM file) before the standby takes it. When
// that write fails the entry is refused whole: the standby never sees it,
// the log never holds it, and a retry of the same entry is not applied or
// journaled twice.
func TestFollowerTermWriteFailsBeforeStandby(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(Config{NodeID: "a", Peers: []Peer{{ID: "a", Addr: "127.0.0.1:0"}}, Dir: dir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	n.cb.OnEntry = func(uint64, *journal.Record) error { applied++; return nil }
	// A directory in the temp file's place makes every TERM write fail.
	if err := os.Mkdir(filepath.Join(dir, "TERM.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := &session{}
	n.mu.Lock()
	n.cur = s
	n.mu.Unlock()
	rec := journal.Record{Kind: journal.KindBagSubmitted, Time: 1, Bag: 0, Granularity: 10, Works: []float64{5}}
	for range 2 {
		if err := n.applyEntry(s, entryPayload(1, 1, &rec)); err == nil {
			t.Fatal("the follower took a term-1 entry whose TERM write failed")
		}
	}
	n.mu.Lock()
	last := n.lastLSN
	n.cur = nil // the session has no connection for Stop to close
	n.mu.Unlock()
	if applied != 0 || last != 0 || n.Err() != nil {
		t.Fatalf("after two refused entries: standby applied %d, last LSN %d, node error %v; want 0, 0, none",
			applied, last, n.Err())
	}
	if err := n.Stop(); err != nil {
		t.Fatal(err)
	}
	j, got, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got.LastLSN != 0 || got.Records != 0 {
		t.Fatalf("reopened log: last LSN %d, %d records; want none", got.LastLSN, got.Records)
	}
}

// TestFatalNodeRefusesVotes: a fatal node grants no vote, so it cannot
// help elect a leader while it holds a standby it may not promote. The
// flag lasts until the process restarts: a snapshot install that rebuilds
// the standby from the leader's state does not clear it.
func TestFatalNodeRefusesVotes(t *testing.T) {
	n, err := Open(Config{NodeID: "a", Peers: []Peer{{ID: "a", Addr: "127.0.0.1:0"}}, Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	follows := 0
	n.cb.OnFollow = func(*journal.Recovered) error { follows++; return nil }
	n.fail(errors.New("standby holds an entry its log lacks"))
	vote := func(term uint64) {
		t.Helper()
		if resp := n.handleVote(voteReqMsg{Term: term, CandidateID: "b", LastTerm: term, LastLSN: 9}); resp.Granted {
			t.Fatalf("a fatal node granted its term-%d vote", term)
		}
		n.mu.Lock()
		voted := n.votedFor
		n.mu.Unlock()
		if voted != "" {
			t.Fatalf("a fatal node recorded a vote for %q", voted)
		}
	}
	vote(1)

	src, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteSnapshot(0, journal.NewState()); err != nil {
		t.Fatal(err)
	}
	image, err := src.ReadSnapshotFile(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	s := &session{}
	n.mu.Lock()
	n.cur = s
	n.mu.Unlock()
	if err := n.installSnapshot(s, image); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.cur = nil // the session has no connection for Stop to close
	n.mu.Unlock()
	if follows != 1 || n.Err() == nil {
		t.Fatalf("after the install: standby rebuilt %d times, node error %v; want 1 and the fatal error kept", follows, n.Err())
	}
	vote(2)
	if err := n.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerMisnumberedAppendIsFatal: when the journal numbers an entry
// the standby took differently from the leader, the follower's log no
// longer matches its standby, so the node turns fatal.
func TestFollowerMisnumberedAppendIsFatal(t *testing.T) {
	n, err := Open(Config{NodeID: "a", Peers: []Peer{{ID: "a", Addr: "127.0.0.1:0"}}, Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	n.cb.OnEntry = func(uint64, *journal.Record) error { return nil }
	s := &session{}
	n.mu.Lock()
	n.cur = s
	n.lastLSN = 4 // the journal's next LSN is 1
	n.mu.Unlock()
	rec := journal.Record{Kind: journal.KindBagSubmitted, Time: 1, Bag: 0, Granularity: 10, Works: []float64{5}}
	if err := n.applyEntry(s, entryPayload(1, 5, &rec)); err == nil {
		t.Fatal("the follower took entry 5 that its journal appended as LSN 1")
	}
	if n.Err() == nil {
		t.Fatal("a misnumbered append left the node healthy")
	}
	n.mu.Lock()
	n.cur = nil // the session has no connection for Stop to close
	n.mu.Unlock()
	if err := n.Stop(); err != nil {
		t.Fatal(err)
	}
}
