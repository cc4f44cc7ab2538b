// Package frame is the one implementation of botgrid's checksummed frame,
// the unit every byte stream in the system is cut into: journal segments
// and snapshot files on disk, the replication layer's log-transfer
// stream, and the binary worker protocol.
//
//	untyped: [uint32 LE payload length][uint32 LE CRC32-IEEE][payload]
//	typed:   [1B type] + the untyped frame
//
// Files use the untyped form (position defines identity); sockets put a
// type byte in front. A payload that survives the checksum is equally
// trustworthy wherever it was read from, which is what lets the WAL, the
// replication stream and the worker protocol share record bytes.
//
// The package is stdlib-only and allocation-free in steady state: encoders
// append into a caller's buffer, Read decodes into a buffer the caller
// hands back in, Next returns views of the input. Inside a payload, the
// journal and the wire protocol encode fields with the same codec
// (payload.go): the Append encoders, Reader, and the field limits.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

const (
	// HeaderSize is the untyped frame header: length + checksum.
	HeaderSize = 8
	// TypedHeaderSize is the typed frame header: type + length + checksum.
	TypedHeaderSize = 1 + HeaderSize
	// MaxPayload bounds a payload read from a stream: a header claiming
	// more is rejected as corrupt before any buffer is sized from it.
	MaxPayload = 1 << 26
)

// Static errors: the read path is hot, so errors carry no formatted
// context (callers know which stream and peer the frame came from).
var (
	ErrTruncated = errors.New("frame: truncated")
	ErrOversized = errors.New("frame: oversized payload")
	ErrChecksum  = errors.New("frame: checksum mismatch")
	ErrType      = errors.New("frame: type out of range")
)

// Fill writes the untyped header for payload into hdr, which must be
// HeaderSize bytes — the encode-in-place path: reserve the header, encode
// the payload behind it, then fill the header in.
//
//botlint:hotpath
func Fill(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
}

// FillStreamed writes the untyped header for a payload that was written
// out in pieces rather than held whole: length bytes whose checksum is sum,
// crc32.Update over the pieces in order from zero.
func FillStreamed(hdr []byte, length int, sum uint32) {
	binary.LittleEndian.PutUint32(hdr, uint32(length))
	binary.LittleEndian.PutUint32(hdr[4:], sum)
}

// Append appends payload to dst as an untyped frame.
//
//botlint:hotpath
func Append(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	dst = append(dst, payload...)
	return dst
}

// AppendTyped appends payload to dst as a typed frame.
//
//botlint:hotpath
func AppendTyped(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	return Append(dst, payload)
}

// Next splits the untyped frame at the front of data into its validated
// payload and the bytes after it. Both alias data: nothing is allocated,
// so the only length ceiling needed is len(data) itself.
func Next(data []byte) (payload, rest []byte, err error) {
	if len(data) < HeaderSize {
		return nil, nil, ErrTruncated
	}
	length := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if uint64(len(data)-HeaderSize) < uint64(length) {
		return nil, nil, ErrTruncated
	}
	end := HeaderSize + int(length)
	payload = data[HeaderSize:end]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, ErrChecksum
	}
	return payload, data[end:], nil
}

// Write sends one typed frame. Callers own buffering and flushing. It is
// the cold path — handshakes, control messages, error teardown: the
// header array's address escapes into the io.Writer, so per-request
// traffic stages frames with AppendTyped into a reusable buffer instead.
func Write(w io.Writer, typ byte, payload []byte) error {
	var hdr [TypedHeaderSize]byte
	hdr[0] = typ
	Fill(hdr[1:], payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Read reads and validates one typed frame whose type must lie in
// [1, maxType], reusing buf when it is large enough. The returned payload
// aliases the (possibly grown) buffer, which is returned for the next
// call. The header is read into the front of buf — its fields are
// extracted before the payload read overwrites them — so the steady state
// touches no fresh memory.
//
//botlint:hotpath
func Read(r io.Reader, buf []byte, maxType byte) (typ byte, payload, nbuf []byte, err error) {
	if cap(buf) < TypedHeaderSize {
		//botlint:ignore escape -- stream's first read: the reusable frame buffer is born here and returned for every later call
		buf = make([]byte, TypedHeaderSize)
	}
	hdr := buf[:TypedHeaderSize]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	typ = hdr[0]
	if typ == 0 || typ > maxType {
		return 0, nil, buf, ErrType
	}
	length := binary.LittleEndian.Uint32(hdr[1:])
	sum := binary.LittleEndian.Uint32(hdr[5:])
	if length > MaxPayload {
		return 0, nil, buf, ErrOversized
	}
	if cap(buf) < int(length) {
		//botlint:ignore escape -- payload growth to the stream's high-water mark; the grown buffer is returned and reused
		buf = make([]byte, length)
	}
	payload = buf[:length]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, buf, ErrChecksum
	}
	return typ, payload, buf, nil
}
