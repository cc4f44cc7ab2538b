package frame

// The payload codec: the field encoding inside a frame, shared by journal
// records and wire messages. Counts, IDs and sequence numbers are
// uvarints; times, works and powers are IEEE-754 bits, little-endian;
// strings are a uvarint length, then the bytes. Encoders append to a
// caller's buffer. Reader parses views that alias the payload, so the
// decode path allocates nothing of its own.

import (
	"encoding/binary"
	"errors"
	"math"
)

// Field limits. A payload claiming more is rejected before any buffer is
// sized from it. The journal, the wire protocol and the HTTP fetch check
// all read these, so whatever one front end accepts the journal can
// replay.
const (
	MaxWorks    = 1 << 24 // tasks in one bag
	MaxWorkerID = 4096    // bytes in a worker ID
)

// Static payload errors, joining ErrTruncated.
var (
	ErrRange     = errors.New("frame: value out of range")
	ErrTrailing  = errors.New("frame: trailing bytes")
	ErrNonFinite = errors.New("frame: non-finite float")
)

// Reader is a cursor with a sticky error over one payload: after the
// first failure every read returns a zero value, so a decoder reads all
// its fields and checks Err (or Done) once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a cursor at the start of payload.
//
//botlint:hotpath
func NewReader(payload []byte) Reader { return Reader{data: payload} }

// Err is the first failure, or nil.
//
//botlint:hotpath
func (r *Reader) Err() error { return r.err }

// U8 reads one byte.
//
//botlint:hotpath
func (r *Reader) U8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.err = ErrTruncated
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// F64 reads one float. Every float in the system's payloads is a time, a
// work, a power or a granularity, so a NaN or an infinity is corruption.
//
//botlint:hotpath
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data)-r.off < 8 {
		r.err = ErrTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	if !isFinite(v) {
		r.err = ErrNonFinite
		return 0
	}
	r.off += 8
	return v
}

// Uvarint reads one uvarint. An overlong one counts as truncated.
//
//botlint:hotpath
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return v
}

// Int reads a uvarint that must be at most MaxInt32, so it fits an int
// on every platform.
//
//botlint:hotpath
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.err = ErrRange
		return 0
	}
	return int(v)
}

// Bytes reads a uvarint-length-prefixed byte string of at most max
// bytes. The view aliases the payload. A length beyond max or beyond the
// payload is ErrRange.
//
//botlint:hotpath
func (r *Reader) Bytes(max int) []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if n > max || len(r.data)-r.off < n {
		r.err = ErrRange
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Floats reads a works vector (a count of at most max, then that many
// floats) and appends it to dst. The count is checked against max and
// against the bytes left before dst grows, once, to fit.
//
//botlint:hotpath
func (r *Reader) Floats(dst []float64, max int) []float64 {
	n := r.Int()
	if r.err != nil {
		return dst
	}
	if n > max || (len(r.data)-r.off)/8 < n {
		r.err = ErrRange
		return dst
	}
	if cap(dst)-len(dst) < n {
		m := len(dst)
		//botlint:ignore escape -- one growth per vector, sized by a count already held to max and to the payload; the wire reuses dst, so it stops at the connection's high-water mark
		dst = append(dst, make([]float64, n)...)
		dst = dst[:m]
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.F64())
	}
	return dst
}

// Done finishes a payload: it returns the sticky error, or ErrTrailing if
// bytes are left undecoded.
//
//botlint:hotpath
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return ErrTrailing
	}
	return nil
}

// AppendF64 appends v as IEEE-754 bits, little-endian.
//
//botlint:hotpath
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends s with its uvarint length in front.
//
//botlint:hotpath
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	dst = append(dst, s...)
	return dst
}

// AppendFloats appends vs as Floats reads it: the count, then the floats.
//
//botlint:hotpath
func AppendFloats(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = AppendF64(dst, v)
	}
	return dst
}

// isFinite reports whether v is neither NaN nor an infinity: whether its
// exponent bits are not all ones.
func isFinite(v float64) bool {
	const exp = 0x7ff << 52
	return math.Float64bits(v)&exp != exp
}
