package journal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"botgrid/internal/frame"
)

// FuzzDecodeRecord drives arbitrary bytes through the record codec: it
// must never panic, it must accept exactly what the oracle accepts and
// decode it to the same record, and any payload it accepts must decode to
// the same record after re-encoding (uvarints admit non-minimal forms, so
// byte-level canonicality is not required — semantic idempotence is).
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range append(script(), edgeRecords()...) {
		f.Add(EncodeRecord(nil, &r))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindBagSubmitted)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		checkDecodeVsOracle(t, data, r, err)
		if err != nil {
			return
		}
		re := EncodeRecord(nil, &r)
		r2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted record fails to decode: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("decode(encode(r)) = %+v, want %+v", r2, r)
		}
	})
}

// checkDecodeVsOracle holds one DecodeRecord result to the oracle: the
// same verdict, and on acceptance the same record. A rejection must wrap
// ErrCorrupt.
func checkDecodeVsOracle(t *testing.T, data []byte, r Record, err error) {
	t.Helper()
	want, werr := oracleDecodeRecord(data)
	head := data[:min(len(data), 32)]
	if (err == nil) != (werr == nil) {
		t.Fatalf("%d bytes % x...: DecodeRecord err = %v, oracle err = %v", len(data), head, err, werr)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d bytes % x...: err = %v, want ErrCorrupt", len(data), head, err)
		}
		return
	}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("%d bytes % x...: DecodeRecord = %+v, oracle = %+v", len(data), head, r, want)
	}
}

// edgeRecords sit on or just past a decode limit: the longest worker ID
// and one byte more, non-finite and negative works, a non-finite power
// and time, and the largest machine index and one more.
func edgeRecords() []Record {
	return []Record{
		{Kind: KindWorkerRegistered, Time: 1, Machine: 3, Power: 1,
			Worker: strings.Repeat("w", frame.MaxWorkerID)},
		{Kind: KindWorkerRegistered, Time: 1, Machine: 3, Power: 1,
			Worker: strings.Repeat("w", frame.MaxWorkerID+1)},
		{Kind: KindBagSubmitted, Time: 1, Granularity: 5,
			Works: []float64{1, math.Inf(1), 2}},
		{Kind: KindBagSubmitted, Time: 1, Granularity: 5, Works: []float64{-1}},
		{Kind: KindWorkerRegistered, Time: 1, Power: math.NaN(), Worker: "w"},
		{Kind: KindMachineUp, Time: math.Inf(-1), Machine: math.MaxInt32},
		{Kind: KindMachineUp, Time: 1, Machine: math.MaxInt32 + 1},
	}
}

// TestDecodeRecordMatchesOracle runs every prefix and every single-byte
// corruption of each script and edge record through both decoders.
func TestDecodeRecordMatchesOracle(t *testing.T) {
	for _, rec := range append(script(), edgeRecords()...) {
		enc := EncodeRecord(nil, &rec)
		for n := 0; n <= len(enc); n++ {
			r, err := DecodeRecord(enc[:n])
			checkDecodeVsOracle(t, enc[:n], r, err)
		}
		for i := range enc {
			for _, x := range []byte{0x01, 0x80, 0xff} {
				bad := append([]byte(nil), enc...)
				bad[i] ^= x
				r, err := DecodeRecord(bad)
				checkDecodeVsOracle(t, bad, r, err)
			}
		}
	}
}

// FuzzSegmentScan drives arbitrary bytes through the segment scanner: it
// must never panic, and on success its accounting must be consistent —
// every byte is either validated log prefix or reported torn tail.
func FuzzSegmentScan(f *testing.F) {
	img := segmentHeader(1)
	for _, r := range script() {
		img = EncodeRecordFramed(img, &r)
	}
	f.Add(img)
	f.Add(img[:len(img)-3])                      // torn final record
	f.Add(append(img[:len(img):len(img)], 0xde)) // trailing garbage
	f.Add([]byte("short"))
	f.Add(segmentHeader(7))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		res, err := scanSegment(path, func(lsn uint64, payload []byte) error {
			DecodeRecord(payload) // exercise the codec; errors are the caller's policy
			return nil
		})
		if err != nil {
			return
		}
		if res.goodSize+res.torn != int64(len(data)) {
			t.Fatalf("goodSize %d + torn %d != file size %d", res.goodSize, res.torn, len(data))
		}
		if res.goodSize < int64(segHeader) {
			t.Fatalf("goodSize %d below header size", res.goodSize)
		}
		if res.nextLSN-res.firstLSN != uint64(res.records) {
			t.Fatalf("LSN span %d..%d disagrees with %d records",
				res.firstLSN, res.nextLSN, res.records)
		}
	})
}

// FuzzDecodeSnapshot drives arbitrary bytes through the decoder a follower
// runs on a snapshot a peer sent: it must decode or refuse, never panic.
// Each input is tried as a whole file and as the payload of a file with a
// valid header, so the checksum does not hide the JSON decoder. A state
// that decodes, written through WriteSnapshot, must come back as the
// oracle's bytes, and the state those decode to, written again, must
// decode to a DeepEqual state. (The input's own state is not compared:
// JSON cannot tell an empty list from an absent one, or keep the spaces
// inside the service blob, so the first trip may normalise it.)
func FuzzDecodeSnapshot(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", snapName(8)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[snapHeader+frame.HeaderSize:])
	f.Add([]byte(`{"sched":{"bags":[]},"workers":[],"service":{ }}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, oracleImage(3, data)} {
			lsn, st, err := DecodeSnapshot(img)
			if err != nil {
				continue
			}
			file := writtenSnapshot(t, lsn, st)
			if want := oracleSnapshot(t, lsn, st); !bytes.Equal(file, want) {
				t.Fatalf("WriteSnapshot wrote\n%q\nwant %q", file, want)
			}
			_, back, err := DecodeSnapshot(file)
			if err != nil {
				t.Fatalf("a written snapshot does not decode: %v", err)
			}
			lsn2, again, err := DecodeSnapshot(writtenSnapshot(t, lsn, back))
			if err != nil || lsn2 != lsn || !reflect.DeepEqual(again, back) {
				t.Fatalf("written again, LSN %d state\n%+v\ndecodes to LSN %d state\n%+v (%v)", lsn, back, lsn2, again, err)
			}
		}
	})
}
