package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// oracleClass maps the oracle's errors onto Reader's.
func oracleClass(err error) error {
	switch err {
	case nil:
		return nil
	case errTruncated:
		return ErrTruncated
	case errRange:
		return ErrRange
	case errTrailing:
		return ErrTrailing
	}
	return err
}

// readerOps are the steps of a FuzzReaderVsOracle script.
const (
	opU8 = iota
	opF64
	opUvarint
	opInt
	opBytes
	opFloats
	opDone
	numOps
)

// byteMaxes are the limits a script's Bytes and Floats steps draw from.
var byteMaxes = []int{0, 1, 3, 8, 64, MaxWorkerID}

// oracleFloats is the works-vector loop of the wire protocol's submit
// decoder as it was before Floats, over the oracle cursor. It returns
// the offset of the first non-finite float, or -1.
func oracleFloats(o *reader, dst []float64, max int) ([]float64, int) {
	n := o.uint()
	if o.err != nil {
		return dst, -1
	}
	if n > max || len(o.data)-o.off < 8*n {
		o.err = errRange
		return dst, -1
	}
	for i := 0; i < n; i++ {
		at := o.off
		w := o.f64()
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return dst, at
		}
		dst = append(dst, w)
	}
	return dst, -1
}

// runScript reads data through Reader and the oracle with the same
// seeded script of steps. Values, offsets and error classes must agree at
// every step. The one intended difference: Reader refuses a non-finite
// float with ErrNonFinite and stays before it, where the oracle returns
// it and moves on; the script ends there.
func runScript(t *testing.T, data []byte, seed uint64) {
	t.Helper()
	rnd := rand.New(rand.NewPCG(seed, seed>>32))
	r := NewReader(data)
	o := reader{data: data}
	for step := 0; step < 32; step++ {
		op := rnd.IntN(numOps)
		max := byteMaxes[rnd.IntN(len(byteMaxes))]
		at := o.off
		switch op {
		case opU8:
			if got, want := r.U8(), o.u8(); got != want {
				t.Fatalf("step %d U8 = %d, oracle %d", step, got, want)
			}
		case opF64:
			got, want := r.F64(), o.f64()
			if o.err == nil && (math.IsNaN(want) || math.IsInf(want, 0)) {
				if r.Err() != ErrNonFinite || r.off != at {
					t.Fatalf("step %d F64 of %v: err %v at %d, want ErrNonFinite at %d", step, want, r.Err(), r.off, at)
				}
				return
			}
			if got != want {
				t.Fatalf("step %d F64 = %v, oracle %v", step, got, want)
			}
		case opUvarint:
			if got, want := r.Uvarint(), o.uvarint(); got != want {
				t.Fatalf("step %d Uvarint = %d, oracle %d", step, got, want)
			}
		case opInt:
			if got, want := r.Int(), o.uint(); got != want {
				t.Fatalf("step %d Int = %d, oracle %d", step, got, want)
			}
		case opBytes:
			got, want := r.Bytes(max), o.bytes(max)
			if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("step %d Bytes(%d) = %q, oracle %q", step, max, got, want)
			}
		case opFloats:
			got := r.Floats(nil, max)
			want, bad := oracleFloats(&o, nil, max)
			if bad >= 0 {
				if r.Err() != ErrNonFinite || r.off != bad {
					t.Fatalf("step %d Floats: err %v at %d, want ErrNonFinite at %d", step, r.Err(), r.off, bad)
				}
				return
			}
			if len(got) != len(want) {
				t.Fatalf("step %d Floats(%d) = %v, oracle %v", step, max, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d Floats(%d) = %v, oracle %v", step, max, got, want)
				}
			}
		case opDone:
			if got, want := r.Done(), oracleClass(o.done()); got != want {
				t.Fatalf("step %d Done = %v, oracle %v", step, got, want)
			}
		}
		if r.off != o.off || r.Err() != oracleClass(o.err) {
			t.Fatalf("step %d (op %d): at %d err %v, oracle at %d err %v", step, op, r.off, r.Err(), o.off, o.err)
		}
	}
}

// FuzzReaderVsOracle holds Reader to the wire protocol's original payload
// cursor over arbitrary bytes and a seeded script of reads.
func FuzzReaderVsOracle(f *testing.F) {
	p := AppendString(nil, "worker-7")
	p = AppendF64(p, 2.5)
	p = AppendFloats(p, []float64{1, 0, 1e9})
	p = binary.AppendUvarint(p, math.MaxInt32)
	p = binary.AppendUvarint(p, math.MaxInt32+1)
	p = binary.AppendUvarint(p, math.MaxUint64)
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(p, seed)
	}
	f.Add(AppendString(nil, strings.Repeat("w", MaxWorkerID+1)), uint64(3))
	f.Add(AppendFloats(nil, []float64{1, math.NaN()}), uint64(5))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint64(1))
	f.Add([]byte{}, uint64(9))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		runScript(t, data, seed)
	})
}

// TestReaderLimits pins each bound at its edge: the largest accepted
// value, and one more.
func TestReaderLimits(t *testing.T) {
	read := func(p []byte, f func(r *Reader)) error {
		r := NewReader(p)
		f(&r)
		return r.Done()
	}
	cases := []struct {
		name string
		p    []byte
		f    func(r *Reader)
		want error
	}{
		{"int max", binary.AppendUvarint(nil, math.MaxInt32), func(r *Reader) { r.Int() }, nil},
		{"int max+1", binary.AppendUvarint(nil, math.MaxInt32+1), func(r *Reader) { r.Int() }, ErrRange},
		{"bytes max", AppendString(nil, "abc"), func(r *Reader) { r.Bytes(3) }, nil},
		{"bytes max+1", AppendString(nil, "abcd"), func(r *Reader) { r.Bytes(3) }, ErrRange},
		{"bytes short", AppendString(nil, "abcd")[:4], func(r *Reader) { r.Bytes(8) }, ErrRange},
		{"worker ID", AppendString(nil, strings.Repeat("w", MaxWorkerID)), func(r *Reader) { r.Bytes(MaxWorkerID) }, nil},
		{"worker ID+1", AppendString(nil, strings.Repeat("w", MaxWorkerID+1)), func(r *Reader) { r.Bytes(MaxWorkerID) }, ErrRange},
		{"floats max", AppendFloats(nil, []float64{1, 2}), func(r *Reader) { r.Floats(nil, 2) }, nil},
		{"floats max+1", AppendFloats(nil, []float64{1, 2, 3}), func(r *Reader) { r.Floats(nil, 2) }, ErrRange},
		{"floats short", AppendFloats(nil, []float64{1, 2})[:16], func(r *Reader) { r.Floats(nil, 2) }, ErrRange},
		{"nan", AppendF64(nil, math.NaN()), func(r *Reader) { r.F64() }, ErrNonFinite},
		{"-inf", AppendF64(nil, math.Inf(-1)), func(r *Reader) { r.F64() }, ErrNonFinite},
		{"largest float", AppendF64(nil, math.MaxFloat64), func(r *Reader) { r.F64() }, nil},
		{"f64 short", AppendF64(nil, 1)[:7], func(r *Reader) { r.F64() }, ErrTruncated},
		{"overlong uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.U8() }, ErrTrailing},
	}
	for _, c := range cases {
		if err := read(c.p, c.f); !errors.Is(err, c.want) || (err == nil) != (c.want == nil) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}
