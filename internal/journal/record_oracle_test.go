package journal

import (
	"encoding/binary"
	"math"
)

// oracleDecodeRecord is DecodeRecord as it was before the field codec
// moved into internal/frame: its own cursor type, its own limits and its
// own finiteness test. It is kept, verbatim but for the renamed
// identifiers, only as the oracle FuzzDecodeRecord and
// TestDecodeRecordMatchesOracle hold DecodeRecord to.
func oracleDecodeRecord(data []byte) (Record, error) {
	var r Record
	d := oracleDecoder{data: data}
	k := d.u8()
	if d.err != nil {
		return r, corrupt("empty payload")
	}
	r.Kind = Kind(k)
	if r.Kind == 0 || r.Kind > kindMax {
		return r, corrupt("unknown kind %d", k)
	}
	r.Time = d.f64()
	switch r.Kind {
	case KindBagSubmitted:
		r.Bag = d.uint()
		r.Granularity = d.f64()
		if d.err == nil && !oracleIsFinite(r.Granularity) {
			return r, corrupt("bad granularity %v", r.Granularity)
		}
		n := d.uint()
		if d.err == nil {
			if n == 0 || n > oracleMaxWorks {
				return r, corrupt("bag with %d tasks", n)
			}
			if len(d.data)-d.off < 8*n {
				return r, corrupt("works truncated")
			}
			r.Works = make([]float64, n)
			for i := range r.Works {
				w := d.f64()
				if !oracleIsFinite(w) || w < 0 {
					return r, corrupt("bad work %v", w)
				}
				r.Works[i] = w
			}
		}
	case KindReplicaStarted:
		r.Bag = d.uint()
		r.Task = d.uint()
		r.Machine = d.uint()
		r.Seq = d.uvarint()
		r.Restart = d.u8() != 0
	case KindTaskCompleted:
		r.Bag = d.uint()
		r.Task = d.uint()
		r.Seq = d.uvarint()
	case KindBagCompleted:
		r.Bag = d.uint()
	case KindMachineDown, KindMachineUp, KindWorkerSeen:
		r.Machine = d.uint()
	case KindWorkerRegistered:
		r.Machine = d.uint()
		r.Power = d.f64()
		if d.err == nil && (!oracleIsFinite(r.Power) || r.Power <= 0) {
			// Machine powers must be positive; the restored grid rejects
			// anything else.
			return r, corrupt("bad power %v", r.Power)
		}
		n := d.uint()
		if d.err == nil {
			if n > oracleMaxWorkerID {
				return r, corrupt("worker ID of %d bytes", n)
			}
			if len(d.data)-d.off < n {
				return r, corrupt("worker ID truncated")
			}
			r.Worker = string(d.data[d.off : d.off+n])
			d.off += n
		}
	}
	if d.err != nil {
		return r, d.err
	}
	if d.off != len(d.data) {
		return r, corrupt("%d trailing bytes", len(d.data)-d.off)
	}
	if !oracleIsFinite(r.Time) || r.Time < 0 {
		return r, corrupt("bad time %v", r.Time)
	}
	return r, nil
}

// The oracle's decode limits.
const (
	oracleMaxWorks    = 1 << 24 // tasks per bag
	oracleMaxWorkerID = 4096    // bytes in a worker ID
)

func oracleIsFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// oracleDecoder is a cursor with sticky errors over a record payload.
type oracleDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *oracleDecoder) u8() byte {
	if d.err != nil || d.off >= len(d.data) {
		d.fail("truncated")
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *oracleDecoder) f64() float64 {
	if d.err != nil || len(d.data)-d.off < 8 {
		d.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

func (d *oracleDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// uint decodes a uvarint that must fit a non-negative int.
func (d *oracleDecoder) uint() int {
	v := d.uvarint()
	if d.err == nil && v > math.MaxInt32 {
		d.fail("value %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *oracleDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corrupt(format, args...)
	}
}
