package replicate

import (
	"bytes"
	"testing"

	"botgrid/internal/frame"
	"botgrid/internal/journal"
)

// FuzzReplicateWire throws arbitrary bytes at the frame reader and, for
// frames that survive, at the payload decoders behind each frame type. The
// invariants: no panic on any input, and an entry that decodes cleanly
// re-encodes to a payload that decodes to the same values (the varint
// fields admit overlong input encodings, so idempotence — not byte
// identity — is the contract; the wire codec is shared with the WAL, so a
// violation here would also be a recovery bug).
func FuzzReplicateWire(f *testing.F) {
	f.Add(frame.AppendTyped(nil, msgHeartbeat, []byte(`{"term":3,"commit":17}`)))
	f.Add(frame.AppendTyped(nil, msgAck, []byte(`{"lsn":42}`)))
	rec := journal.Record{Kind: journal.KindBagSubmitted, Time: 1.5, Bag: 1, Granularity: 10, Works: []float64{5, 7}}
	f.Add(appendEntryFrame(nil, 2, 9, &rec))
	f.Add([]byte{msgHello, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			typ, payload, nbuf, err := frame.Read(r, buf, msgMax)
			if err != nil {
				return
			}
			buf = nbuf
			switch typ {
			case msgEntry:
				term, lsn, rec, err := decodeEntry(payload)
				if err != nil {
					continue
				}
				back := entryPayload(term, lsn, &rec)
				term2, lsn2, rec2, err := decodeEntry(back)
				if err != nil {
					t.Fatalf("re-encoding of a valid entry failed to decode: %v", err)
				}
				if term2 != term || lsn2 != lsn {
					t.Fatalf("entry header changed: (%d, %d) -> (%d, %d)", term, lsn, term2, lsn2)
				}
				a := journal.EncodeRecord(nil, &rec)
				b := journal.EncodeRecord(nil, &rec2)
				if !bytes.Equal(a, b) {
					t.Fatalf("entry record not idempotent: %x -> %x", a, b)
				}
			case msgHello:
				var m helloMsg
				_ = decodeJSON(payload, &m)
			case msgState:
				var m stateMsg
				_ = decodeJSON(payload, &m)
			case msgHeartbeat:
				var m hbMsg
				_ = decodeJSON(payload, &m)
			case msgAck:
				var m ackMsg
				_ = decodeJSON(payload, &m)
			case msgVoteReq:
				var m voteReqMsg
				_ = decodeJSON(payload, &m)
			case msgVoteResp:
				var m voteRespMsg
				_ = decodeJSON(payload, &m)
			case msgReject:
				var m rejectMsg
				_ = decodeJSON(payload, &m)
			}
		}
	})
}
