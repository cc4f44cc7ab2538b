package replicate

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"botgrid/internal/frame"
	"botgrid/internal/journal"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	var buf bytes.Buffer
	for _, p := range payloads {
		for typ := msgHello; typ <= msgReject; typ++ {
			if err := frame.Write(&buf, typ, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	var scratch []byte
	for _, p := range payloads {
		for typ := msgHello; typ <= msgReject; typ++ {
			got, payload, nbuf, err := frame.Read(&buf, scratch, msgMax)
			if err != nil {
				t.Fatalf("type %d: %v", typ, err)
			}
			scratch = nbuf
			if got != typ || !bytes.Equal(payload, p) {
				t.Fatalf("frame (%d, %d bytes) read back as (%d, %d bytes)",
					typ, len(p), got, len(payload))
			}
		}
	}
	if _, _, _, err := frame.Read(&buf, scratch, msgMax); !errors.Is(err, io.EOF) {
		t.Fatalf("drained stream: want EOF, got %v", err)
	}
}

func TestFrameAppendMatchesWrite(t *testing.T) {
	payload := []byte("identical encodings")
	var w bytes.Buffer
	if err := frame.Write(&w, msgEntry, payload); err != nil {
		t.Fatal(err)
	}
	if got := frame.AppendTyped(nil, msgEntry, payload); !bytes.Equal(got, w.Bytes()) {
		t.Fatalf("AppendTyped and Write disagree:\n%x\n%x", got, w.Bytes())
	}
}

func TestFrameCorruption(t *testing.T) {
	ack := frame.AppendTyped(nil, msgAck, []byte(`{"lsn":42}`))
	cases := map[string]func([]byte) []byte{
		"bad type":     func(b []byte) []byte { b[0] = 0; return b },
		"unknown type": func(b []byte) []byte { b[0] = msgReject + 1; return b },
		"flipped byte": func(b []byte) []byte { b[frame.TypedHeaderSize] ^= 0x80; return b },
		"flipped crc":  func(b []byte) []byte { b[5] ^= 1; return b },
		"huge length":  func(b []byte) []byte { b[3] = 0xFF; b[4] = 0xFF; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-1] },
		"header only":  func(b []byte) []byte { return b[:frame.TypedHeaderSize-2] },
	}
	for name, corrupt := range cases {
		b := corrupt(bytes.Clone(ack))
		_, _, _, err := frame.Read(bytes.NewReader(b), nil, msgMax)
		if err == nil {
			t.Errorf("%s: corrupt frame decoded cleanly", name)
		}
	}
}

// entryPayload is the payload of appendEntryFrame's frame: what a follower
// hands applyEntry.
func entryPayload(term, lsn uint64, r *journal.Record) []byte {
	return appendEntryFrame(nil, term, lsn, r)[frame.TypedHeaderSize:]
}

func TestEntryRoundTrip(t *testing.T) {
	recs := []journal.Record{
		{Kind: journal.KindBagSubmitted, Time: 1.5, Bag: 3, Granularity: 100, Works: []float64{1, 2, 3}},
		{Kind: journal.KindReplicaStarted, Time: 2.25, Bag: 3, Task: 1, Machine: 4, Seq: 9},
		{Kind: journal.KindWorkerSeen, Time: 77.5, Machine: 2},
	}
	for _, rec := range recs {
		payload := entryPayload(7, 1234, &rec)
		term, lsn, got, err := decodeEntry(payload)
		if err != nil {
			t.Fatalf("kind %d: %v", rec.Kind, err)
		}
		if term != 7 || lsn != 1234 {
			t.Fatalf("kind %d: (term, lsn) = (%d, %d)", rec.Kind, term, lsn)
		}
		// The record codec is shared with the journal; spot-check identity
		// through a re-encode.
		want := journal.EncodeRecord(nil, &rec)
		back := journal.EncodeRecord(nil, &got)
		if !bytes.Equal(want, back) {
			t.Fatalf("kind %d: record changed across the wire", rec.Kind)
		}
	}
	if _, _, _, err := decodeEntry([]byte("short")); err == nil {
		t.Fatal("truncated entry decoded cleanly")
	}
}

func TestControlMessages(t *testing.T) {
	var buf bytes.Buffer
	in := helloMsg{LeaderID: "a", Term: 3, HTTPAddr: "127.0.0.1:8431", Commit: 17}
	if err := sendJSON(&buf, msgHello, in); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := frame.Read(&buf, nil, msgMax)
	if err != nil || typ != msgHello {
		t.Fatalf("frame.Read: type %d, %v", typ, err)
	}
	var out helloMsg
	if err := decodeJSON(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("hello round trip: %+v != %+v", out, in)
	}
	if err := decodeJSON([]byte("{nope"), &out); err == nil {
		t.Fatal("bad JSON decoded cleanly")
	}
}

func TestTermStatePersistence(t *testing.T) {
	dir := t.TempDir()
	term, vote, at, err := loadTermState(dir)
	if err != nil || term != 0 || vote != "" || at != 0 {
		t.Fatalf("empty dir: (%d, %q, %d, %v)", term, vote, at, err)
	}
	if err := saveTermState(dir, 5, "node-b", 4); err != nil {
		t.Fatal(err)
	}
	term, vote, at, err = loadTermState(dir)
	if err != nil || term != 5 || vote != "node-b" || at != 4 {
		t.Fatalf("round trip: (%d, %q, %d, %v)", term, vote, at, err)
	}
	if err := saveTermState(dir, 6, "", 6); err != nil {
		t.Fatal(err)
	}
	term, vote, at, err = loadTermState(dir)
	if err != nil || term != 6 || vote != "" || at != 6 {
		t.Fatalf("empty vote round trip: (%d, %q, %d, %v)", term, vote, at, err)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=127.0.0.1:9431, b=127.0.0.1:9432,c=127.0.0.1:9433")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers[0].ID != "a" || peers[2].Addr != "127.0.0.1:9433" {
		t.Fatalf("parsed %+v", peers)
	}
	for _, bad := range []string{"", "a", "a=,b=x:1", "a=x:1,a=y:2"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestQuorumAndStagger(t *testing.T) {
	if quorum(3) != 2 || quorum(5) != 3 || quorum(1) != 1 {
		t.Fatalf("quorum sizes wrong: %d %d %d", quorum(3), quorum(5), quorum(1))
	}
	peers := []Peer{{ID: "c"}, {ID: "a"}, {ID: "b"}}
	if peerIndex(peers, "a") != 0 || peerIndex(peers, "b") != 1 || peerIndex(peers, "c") != 2 {
		t.Fatal("peerIndex must follow ID sort order, not list order")
	}
}
