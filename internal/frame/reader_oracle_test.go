package frame

import (
	"encoding/binary"
	"errors"
	"math"
)

// reader is the wire protocol's payload cursor as it was before the field
// codec moved into this package, with its static errors. It is kept,
// verbatim, only as the oracle FuzzReaderVsOracle holds Reader to.

// Static decode errors (the codec path is hot; no formatted context).
var (
	errTruncated = errors.New("wire: bad frame: truncated payload")
	errTrailing  = errors.New("wire: bad frame: trailing bytes")
	errRange     = errors.New("wire: bad frame: value out of range")
)

// reader is a cursor with a sticky error over a message payload, the
// journal decoder's shape with static errors.
type reader struct {
	data []byte
	off  int
	err  error
}

//botlint:hotpath
func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.err = errTruncated
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

//botlint:hotpath
func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data)-r.off < 8 {
		r.err = errTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

//botlint:hotpath
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.off += n
	return v
}

// uint decodes a uvarint that must fit a non-negative int.
//
//botlint:hotpath
func (r *reader) uint() int {
	v := r.uvarint()
	if r.err == nil && v > math.MaxInt32 {
		r.err = errRange
		return 0
	}
	return int(v)
}

// bytes decodes a uvarint-length-prefixed byte string of at most max
// bytes. The view aliases the payload.
//
//botlint:hotpath
func (r *reader) bytes(max int) []byte {
	n := r.uint()
	if r.err != nil {
		return nil
	}
	if n > max || len(r.data)-r.off < n {
		r.err = errRange
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// done finishes a standalone payload: any undecoded tail is corruption.
//
//botlint:hotpath
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return errTrailing
	}
	return nil
}
