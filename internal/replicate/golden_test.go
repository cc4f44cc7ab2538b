package replicate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"botgrid/internal/frame"
	"botgrid/internal/journal"
)

// TestParentGolden holds the replication stream to bytes written before
// the framing moved into internal/frame: testdata/entry.frame is one
// msgEntry frame (term 2, LSN 9) produced by the pre-move code, so a peer
// still running it and this one read each other's entries. The frame is
// built as Replica.Append builds it, by appendEntryFrame.
func TestParentGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "entry.frame"))
	if err != nil {
		t.Fatal(err)
	}
	rec := journal.Record{Kind: journal.KindBagSubmitted, Time: 1, Bag: 0, Granularity: 2000, Works: []float64{100, 200}}
	if got := appendEntryFrame(nil, 2, 9, &rec); !bytes.Equal(got, want) {
		t.Fatalf("entry frame moved:\n got %x\nwant %x", got, want)
	}
	typ, payload, _, err := frame.Read(bytes.NewReader(want), nil, msgMax)
	if err != nil || typ != msgEntry {
		t.Fatalf("reading the golden frame: type %d, %v", typ, err)
	}
	term, lsn, got, err := decodeEntry(payload)
	if err != nil || term != 2 || lsn != 9 {
		t.Fatalf("golden entry decodes to term %d LSN %d: %v", term, lsn, err)
	}
	if !bytes.Equal(journal.EncodeRecord(nil, &got), journal.EncodeRecord(nil, &rec)) {
		t.Fatalf("golden entry decodes to %+v", got)
	}
}
