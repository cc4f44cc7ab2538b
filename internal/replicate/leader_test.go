package replicate

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"botgrid/internal/frame"
	"botgrid/internal/journal"
)

// TestCatchUpShipsSnapshotFile: a follower session is sent the leader's
// newest snapshot file byte for byte, read from disk when the session
// opens. After two more snapshots have pruned the first file, the next
// session ships the newest one.
func TestCatchUpShipsSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NodeID: "a", Dir: dir, Peers: []Peer{{ID: "a", Addr: "127.0.0.1:0"}, {ID: "b", Addr: ln.Addr().String()}}}
	rep := newReplica(cfg, 1, jnl, rec.LastLSN)
	defer rep.Close()
	snapshot := func(lsn uint64) {
		t.Helper()
		st := journal.NewState()
		st.Time = float64(lsn) + 0.5
		if err := rep.WriteSnapshot(lsn, st); err != nil {
			t.Fatal(err)
		}
	}
	snapshot(rec.LastLSN)
	rep.start()

	first := catchUp(t, ln)
	newest := newestSnapshot(t, dir)
	if !bytes.Equal(first, newest) {
		t.Fatalf("first session shipped %d bytes, not the %d-byte snapshot file", len(first), len(newest))
	}
	for range 2 {
		lsn, err := rep.Append(&journal.Record{Kind: journal.KindBagSubmitted, Time: 1, Granularity: 10, Works: []float64{5}})
		if err != nil {
			t.Fatal(err)
		}
		snapshot(lsn)
	}
	if got := len(snapshotPaths(t, dir)); got != 2 {
		t.Fatalf("%d snapshot files after two more snapshots; want the first pruned", got)
	}
	second := catchUp(t, ln)
	newest = newestSnapshot(t, dir)
	if bytes.Equal(second, first) || !bytes.Equal(second, newest) {
		t.Fatalf("second session shipped %d bytes, not the newest %d-byte snapshot file", len(second), len(newest))
	}
}

// catchUp plays a follower for the next leader session on ln: it answers
// hello with its state and returns the msgSnapshot payload. Closing the
// connection then makes the leader redial.
func catchUp(t *testing.T, ln net.Listener) []byte {
	t.Helper()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	typ, payload, buf, err := frame.Read(conn, nil, msgMax)
	if err != nil || typ != msgHello {
		t.Fatalf("session opened with frame type %d: %v", typ, err)
	}
	var hello helloMsg
	if err := decodeJSON(payload, &hello); err != nil {
		t.Fatal(err)
	}
	if err := sendJSON(conn, msgState, stateMsg{Term: hello.Term}); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err = frame.Read(conn, buf, msgMax)
	if err != nil || typ != msgSnapshot {
		t.Fatalf("state answered with frame type %d: %v", typ, err)
	}
	return bytes.Clone(payload)
}

// snapshotPaths lists dir's snapshot files, oldest first: their names
// are zero-padded LSNs.
func snapshotPaths(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no snapshot files in %s: %v", dir, err)
	}
	return paths
}

// newestSnapshot reads dir's newest snapshot file.
func newestSnapshot(t *testing.T, dir string) []byte {
	t.Helper()
	paths := snapshotPaths(t, dir)
	b, err := os.ReadFile(paths[len(paths)-1])
	if err != nil {
		t.Fatal(err)
	}
	return b
}
