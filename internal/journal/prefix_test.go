package journal_test

import (
	"os"
	"path/filepath"
	"testing"

	"botgrid/internal/journal"
	"botgrid/internal/serve"
)

// fixedClock is a core.Clock stopped at one instant.
type fixedClock float64

func (c fixedClock) Now() float64 { return float64(c) }

// TestEveryLogPrefixRecovers cuts logs at every record boundary, as a crash
// between two appends leaves them, and requires serve.NewServer to recover
// each prefix and replay every record in it. The logs are generated
// streams and one hand-written log whose four-record prefix ends at a
// bag's last task completion, before the BagCompleted record the same
// scheduler call appended next.
func TestEveryLogPrefixRecovers(t *testing.T) {
	const machines = 6
	logs := [][]journal.Record{{
		{Kind: journal.KindWorkerRegistered, Time: 1, Machine: 0, Worker: "w0", Power: 1},
		{Kind: journal.KindBagSubmitted, Time: 1, Bag: 0, Granularity: 10, Works: []float64{5}},
		{Kind: journal.KindReplicaStarted, Time: 2, Bag: 0, Task: 0, Machine: 0, Seq: 1},
		{Kind: journal.KindTaskCompleted, Time: 3, Bag: 0, Task: 0, Seq: 1},
		{Kind: journal.KindBagCompleted, Time: 3, Bag: 0},
	}}
	for seed := int64(1); seed <= 3; seed++ {
		logs = append(logs, journal.GeneratedStream(seed, machines, 120))
	}
	for i, recs := range logs {
		full := t.TempDir()
		j, _, err := journal.Open(journal.Options{Dir: full, Fsync: journal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for k := range recs {
			if _, err := j.Append(&recs[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(full, "*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("log %d: segments %v: %v", i, segs, err)
		}
		seg, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		meta, err := os.ReadFile(filepath.Join(full, "META"))
		if err != nil {
			t.Fatal(err)
		}
		off := len(seg)
		for k := range recs {
			off -= len(journal.EncodeRecordFramed(nil, &recs[k]))
		}
		for k := 0; k <= len(recs); k++ {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "META"), meta, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), seg[:off], 0o644); err != nil {
				t.Fatal(err)
			}
			srv, err := serve.NewServer(serve.Config{
				DataDir: dir, Fsync: journal.FsyncOff, MaxWorkers: machines, Clock: fixedClock(1e6),
			})
			if err != nil {
				t.Fatalf("log %d cut after %d of %d records: %v", i, k, len(recs), err)
			}
			if got := srv.Recovery().RecordsReplayed; got != k {
				t.Errorf("log %d cut after %d records: %d replayed", i, k, got)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if k < len(recs) {
				off += len(journal.EncodeRecordFramed(nil, &recs[k]))
			}
		}
	}
}
