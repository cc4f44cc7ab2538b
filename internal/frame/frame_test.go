package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

var payloads = [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}

func TestUntypedRoundTrip(t *testing.T) {
	var img []byte
	for _, p := range payloads {
		img = Append(img, p)
	}
	// Fill over a reserved header yields the same bytes as Append.
	filled := make([]byte, HeaderSize, HeaderSize+1)
	filled = append(filled, 'x')
	Fill(filled[:HeaderSize], filled[HeaderSize:])
	if want := Append(nil, []byte("x")); !bytes.Equal(filled, want) {
		t.Fatalf("Fill = %x, Append = %x", filled, want)
	}
	rest := img
	for i, p := range payloads {
		got, next, err := Next(rest)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: %q, %v", i, got, err)
		}
		rest = next
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
	if _, _, err := Next(rest); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty input: %v", err)
	}
}

func TestTypedRoundTrip(t *testing.T) {
	const maxType = 9
	var stream bytes.Buffer
	for _, p := range payloads {
		for typ := byte(1); typ <= maxType; typ++ {
			if err := Write(&stream, typ, p); err != nil {
				t.Fatal(err)
			}
			// The hot-path encoder and the cold-path writer agree.
			tail := stream.Bytes()[stream.Len()-TypedHeaderSize-len(p):]
			if got := AppendTyped(nil, typ, p); !bytes.Equal(got, tail) {
				t.Fatalf("AppendTyped and Write disagree:\n%x\n%x", got, tail)
			}
		}
	}
	var buf []byte
	for _, p := range payloads {
		for typ := byte(1); typ <= maxType; typ++ {
			got, payload, nbuf, err := Read(&stream, buf, maxType)
			if err != nil || got != typ || !bytes.Equal(payload, p) {
				t.Fatalf("frame (%d, %d bytes) read back as (%d, %d bytes, %v)", typ, len(p), got, len(payload), err)
			}
			buf = nbuf
		}
	}
	if _, _, _, err := Read(&stream, buf, maxType); !errors.Is(err, io.EOF) {
		t.Fatalf("drained stream: want EOF, got %v", err)
	}
}

// TestRejects feeds each kind of damage to both decoders. The readers
// start from a small reusable buffer; none of the rejections may grow it,
// least of all to a size taken from the damaged header.
func TestRejects(t *testing.T) {
	const maxType = 4
	typed := AppendTyped(nil, 2, []byte("payload"))
	cases := []struct {
		name    string
		corrupt func(b []byte) []byte
		want    error
	}{
		{"truncated header", func(b []byte) []byte { return b[:TypedHeaderSize-2] }, io.ErrUnexpectedEOF},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }, io.ErrUnexpectedEOF},
		{"flipped payload byte", func(b []byte) []byte { b[TypedHeaderSize] ^= 0x80; return b }, ErrChecksum},
		{"flipped crc byte", func(b []byte) []byte { b[5] ^= 1; return b }, ErrChecksum},
		{"oversized length", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[1:], MaxPayload+1); return b }, ErrOversized},
		{"type zero", func(b []byte) []byte { b[0] = 0; return b }, ErrType},
		{"type past max", func(b []byte) []byte { b[0] = maxType + 1; return b }, ErrType},
	}
	for _, tc := range cases {
		b := tc.corrupt(bytes.Clone(typed))
		buf := make([]byte, 16)
		_, _, nbuf, err := Read(bytes.NewReader(b), buf, maxType)
		if !errors.Is(err, tc.want) {
			t.Errorf("typed, %s: got %v, want %v", tc.name, err, tc.want)
		}
		if cap(nbuf) != cap(buf) {
			t.Errorf("typed, %s: buffer grew from %d to %d bytes", tc.name, cap(buf), cap(nbuf))
		}
	}

	untyped := Append(nil, []byte("payload"))
	for name, tc := range map[string]struct {
		corrupt func(b []byte) []byte
		want    error
	}{
		"truncated header":  {func(b []byte) []byte { return b[:HeaderSize-1] }, ErrTruncated},
		"truncated payload": {func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		"flipped payload":   {func(b []byte) []byte { b[HeaderSize] ^= 0x80; return b }, ErrChecksum},
		"flipped crc":       {func(b []byte) []byte { b[4] ^= 1; return b }, ErrChecksum},
		"length past input": {func(b []byte) []byte { binary.LittleEndian.PutUint32(b, 1<<31); return b }, ErrTruncated},
	} {
		if _, _, err := Next(tc.corrupt(bytes.Clone(untyped))); !errors.Is(err, tc.want) {
			t.Errorf("untyped, %s: got %v, want %v", name, err, tc.want)
		}
	}
}

// TestNextAcceptsOversizedPayload pins a deliberate asymmetry with Read:
// MaxPayload guards against sizing a buffer from a damaged header, and
// Next sizes nothing — it returns views of bytes already in memory — so a
// CRC-valid frame one byte past MaxPayload comes back whole, without
// allocating. TestRejects covers Read refusing the same length.
func TestNextAcceptsOversizedPayload(t *testing.T) {
	img := make([]byte, HeaderSize+MaxPayload+1)
	img[len(img)-1] = 0x5a
	Fill(img[:HeaderSize], img[HeaderSize:])
	var payload, rest []byte
	var err error
	allocs := testing.AllocsPerRun(1, func() { payload, rest, err = Next(img) })
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if len(payload) != MaxPayload+1 || &payload[0] != &img[HeaderSize] || len(rest) != 0 {
		t.Fatalf("payload of %d bytes (aliasing the input: %v), %d bytes left",
			len(payload), &payload[0] == &img[HeaderSize], len(rest))
	}
	if allocs != 0 {
		t.Fatalf("Next allocates %.0f times on a %d-byte payload", allocs, len(payload))
	}
}

// TestReadReusesBuffer pins the zero-alloc contract: once the buffer has
// reached the stream's largest frame, reading allocates nothing.
func TestReadReusesBuffer(t *testing.T) {
	stream := AppendTyped(nil, 1, bytes.Repeat([]byte{7}, 512))
	r := bytes.NewReader(stream)
	_, _, buf, err := Read(r, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		if _, _, buf, err = Read(r, buf, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Read allocates %.0f times per frame on a warm buffer", allocs)
	}
}
