package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"botgrid/internal/core"
	"botgrid/internal/frame"
)

// TestParentGolden holds the on-disk formats to bytes written before the
// framing moved into internal/frame: testdata/golden is script() as a
// segment, and the state it replays to as a snapshot at LSN 8, both
// produced by the pre-move code (the state is folded here by the oracle,
// linearState, which that code ran). Encoding must still produce exactly
// those bytes, and a data directory made of them must still recover.
func TestParentGolden(t *testing.T) {
	golden := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seg, snap := golden(segName(1)), golden(snapName(8))

	img := segmentHeader(1)
	st := NewState()
	for _, r := range script() {
		img = EncodeRecordFramed(img, &r)
		if err := (*linearState)(st).Apply(&r); err != nil {
			t.Fatal(err)
		}
	}
	st.Time = 8
	if !bytes.Equal(img, seg) {
		t.Fatalf("segment encoding moved:\n got %x\nwant %x", img, seg)
	}
	for how, got := range map[string][]byte{"WriteSnapshot": writtenSnapshot(t, 8, st), "oracle": oracleSnapshot(t, 8, st)} {
		if !bytes.Equal(got, snap) {
			t.Fatalf("%s: snapshot encoding moved:\n got %x\nwant %x", how, got, snap)
		}
	}

	// Log only: full replay. Snapshot + log: zero replay. Same state.
	for _, tc := range []struct {
		name    string
		files   map[string][]byte
		records int
	}{
		{"segment", map[string][]byte{segName(1): seg}, 8},
		{"snapshot", map[string][]byte{segName(1): seg, snapName(8): snap}, 0},
	} {
		dir := t.TempDir()
		for name, b := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, rec, err := Open(Options{Dir: dir, Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rec.LastLSN != 8 || rec.Records != tc.records || rec.TornBytes != 0 {
			t.Fatalf("%s: recovered LSN %d, %d records, %d torn bytes", tc.name, rec.LastLSN, rec.Records, rec.TornBytes)
		}
		checkScriptState(t, scriptState(t, rec))
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotPayloadIsMarshal holds the piecewise snapshot encoder to
// json.Marshal of the whole state: nil, empty and several active bags, and
// strings after the bags that JSON must escape. The file WriteSnapshot
// streams must be the oracle's image byte for byte.
func TestSnapshotPayloadIsMarshal(t *testing.T) {
	full := NewState()
	for _, r := range script() {
		if err := (*linearState)(full).Apply(&r); err != nil {
			t.Fatal(err)
		}
	}
	for b := 1; b <= 3; b++ {
		r := Record{Kind: KindBagSubmitted, Time: 9, Bag: b, Granularity: 1e3, Works: []float64{0.1, 2e-9, 3e21}}
		if err := (*linearState)(full).Apply(&r); err != nil {
			t.Fatal(err)
		}
	}
	full.Workers = append(full.Workers, WorkerSnapshot{ID: `w<&>"\` + " ", Machine: 1, Power: 1})
	full.Workers = append(full.Workers, WorkerSnapshot{ID: "w\n", Machine: 2, Power: 1})
	full.Service = json.RawMessage(`{"dispatches":3}`)
	empty := NewState()
	empty.Sched.Bags = []core.BagSnapshot{}
	for name, st := range map[string]*State{"nil bags": NewState(), "empty bags": empty, "four bags": full} {
		want := oracleSnapshot(t, 5, st)
		got := writtenSnapshot(t, 5, st)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: WriteSnapshot wrote\n%x\nwant %x", name, got, want)
		}
		lsn, back, err := DecodeSnapshot(got)
		if err != nil || lsn != 5 {
			t.Fatalf("%s: decode: lsn %d, %v", name, lsn, err)
		}
		if len(back.Sched.Bags) != len(st.Sched.Bags) {
			t.Fatalf("%s: %d bags back, want %d", name, len(back.Sched.Bags), len(st.Sched.Bags))
		}
	}
}

// oracleSnapshot is the snapshot file of st covering lsn as an encoder
// independent of the journal's makes it: the magic, the LSN and one frame
// holding json.Marshal(st).
func oracleSnapshot(t testing.TB, lsn uint64, st *State) []byte {
	t.Helper()
	payload, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return oracleImage(lsn, payload)
}

// oracleImage frames payload as a snapshot file covering lsn.
func oracleImage(lsn uint64, payload []byte) []byte {
	return frame.Append(binary.LittleEndian.AppendUint64([]byte(snapMagic), lsn), payload)
}

// writtenSnapshot returns the file WriteSnapshot makes of st covering lsn
// in a fresh journal, read back through ReadSnapshotFile.
func writtenSnapshot(t testing.TB, lsn uint64, st *State) []byte {
	t.Helper()
	j, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.WriteSnapshot(lsn, st); err != nil {
		t.Fatal(err)
	}
	img, err := j.ReadSnapshotFile(lsn)
	if err != nil {
		t.Fatal(err)
	}
	return img
}
