package wire

// FuzzWireCodec drives the decoder surface with arbitrary bytes — the
// exact input a malicious or corrupted peer controls. Every payload must
// decode or error; it must never panic and never over-allocate from a
// length field. Whatever does decode must survive an encode→decode
// round-trip with identical values (byte equality is not required: the
// varint decoder tolerates non-minimal encodings).

import (
	"bytes"
	"errors"
	"testing"

	"botgrid/internal/frame"
)

func FuzzWireCodec(f *testing.F) {
	f.Add([]byte{}, msgBatch)
	f.Add(appendFetch(nil, "worker", 10), msgBatch)
	f.Add(appendSubmit(nil, 100, []float64{1, 2, 3}), msgBatch)
	f.Add(appendReport(nil, "w", 7, true), msgBatch)
	f.Add(appendHeartbeat(nil, "w", 7), msgBatch)
	f.Add(appendFetchResp(nil, FetchResult{Assigned: true, Replica: 3, Work: 5}, ""), msgBatch)
	f.Add(appendSubmitResp(nil, SubmitResult{Bag: 1, Tasks: 2}, ""), msgBatch)

	f.Fuzz(func(t *testing.T, data []byte, kind byte) {
		r := frame.NewReader(data)
		if gran, works, err := decodeSubmit(&r, nil); err == nil && r.Done() == nil {
			enc := appendSubmit(nil, gran, works)
			r2 := frame.NewReader(enc)
			gran2, works2, err := decodeSubmit(&r2, nil)
			if err != nil || r2.Done() != nil || gran2 != gran || len(works2) != len(works) {
				t.Fatalf("submit round-trip: %v", err)
			}
			for i := range works {
				if works2[i] != works[i] {
					t.Fatalf("submit round-trip work %d: %v != %v", i, works2[i], works[i])
				}
			}
		}
		r = frame.NewReader(data)
		if worker, power, err := decodeFetch(&r); err == nil && r.Done() == nil {
			enc := appendFetch(nil, string(worker), power)
			r2 := frame.NewReader(enc)
			worker2, power2, err := decodeFetch(&r2)
			if err != nil || r2.Done() != nil || !bytes.Equal(worker2, worker) || power2 != power {
				t.Fatalf("fetch round-trip: %v", err)
			}
		}
		r = frame.NewReader(data)
		if worker, replica, failed, err := decodeReport(&r); err == nil && r.Done() == nil {
			enc := appendReport(nil, string(worker), replica, failed)
			r2 := frame.NewReader(enc)
			worker2, replica2, failed2, err := decodeReport(&r2)
			if err != nil || r2.Done() != nil || !bytes.Equal(worker2, worker) ||
				replica2 != replica || failed2 != failed {
				t.Fatalf("report round-trip: %v", err)
			}
		}
		r = frame.NewReader(data)
		if worker, replica, err := decodeHeartbeat(&r); err == nil && r.Done() == nil {
			enc := appendHeartbeat(nil, string(worker), replica)
			r2 := frame.NewReader(enc)
			worker2, replica2, err := decodeHeartbeat(&r2)
			if err != nil || r2.Done() != nil || !bytes.Equal(worker2, worker) || replica2 != replica {
				t.Fatalf("heartbeat round-trip: %v", err)
			}
		}
		r = frame.NewReader(data)
		if res, msg, err := decodeSubmitResp(&r); err == nil && r.Done() == nil && len(msg) == 0 {
			enc := appendSubmitResp(nil, res, "")
			r2 := frame.NewReader(enc)
			res2, _, err := decodeSubmitResp(&r2)
			if err != nil || r2.Done() != nil || res2 != res {
				t.Fatalf("submit resp round-trip: %v", err)
			}
		}
		r = frame.NewReader(data)
		if res, msg, err := decodeFetchResp(&r); err == nil && r.Done() == nil && len(msg) == 0 {
			enc := appendFetchResp(nil, res, "")
			r2 := frame.NewReader(enc)
			res2, _, err := decodeFetchResp(&r2)
			if err != nil || r2.Done() != nil || res2 != res {
				t.Fatalf("fetch resp round-trip: %v", err)
			}
		}
		r = frame.NewReader(data)
		if ack, err := decodeAckResp(&r); err == nil && r.Done() == nil {
			r2 := frame.NewReader(appendAckResp(nil, ack))
			if ack2, err := decodeAckResp(&r2); err != nil || ack2 != ack {
				t.Fatalf("ack round-trip: %v", err)
			}
		}

		// Frame layer: a well-formed frame round-trips; any truncation or
		// single-byte payload corruption must error, never hang or panic.
		if kind >= 1 && kind <= msgMax && len(data) < 1<<16 {
			var buf bytes.Buffer
			if err := frame.Write(&buf, kind, data); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			typ, payload, _, err := frame.Read(bytes.NewReader(raw), nil, msgMax)
			if err != nil || typ != kind || !bytes.Equal(payload, data) {
				t.Fatalf("frame round-trip: type %d err %v", typ, err)
			}
			for _, cut := range []int{0, 1, frame.TypedHeaderSize - 1, len(raw) - 1} {
				if cut >= len(raw) {
					continue
				}
				if _, _, _, err := frame.Read(bytes.NewReader(raw[:cut]), nil, msgMax); err == nil {
					t.Fatalf("truncated frame (%d of %d bytes) decoded", cut, len(raw))
				}
			}
			if len(data) > 0 {
				bad := append([]byte(nil), raw...)
				bad[frame.TypedHeaderSize+int(kind)%len(data)] ^= 0x55
				if _, _, _, err := frame.Read(bytes.NewReader(bad), nil, msgMax); !errors.Is(err, frame.ErrChecksum) {
					t.Fatalf("corrupted frame: %v", err)
				}
			}
		}
	})
}
