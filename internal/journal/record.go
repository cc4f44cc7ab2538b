// Package journal is the durability subsystem of the live work-dispatch
// service: a write-ahead log of scheduler mutations plus periodic state
// snapshots, replayed on startup to recover a crashed daemon's complete
// scheduling state.
//
// The pieces, bottom-up:
//
//   - record.go: the binary record codec. One Record per scheduler
//     mutation (internal/core's Mutation stream) or service event (worker
//     registration, lease renewal).
//   - segment.go: length-prefixed, CRC32-checked frames in numbered
//     segment files; scanning truncates a torn final record.
//   - journal.go: the append path with group-committed fsync, segment
//     rotation, and startup recovery: the latest snapshot plus a scanned
//     log tail, which Recovered.Replay streams back record by record.
//   - snapshot.go: the snapshot's plain-data State, its file format and
//     the Young's-formula cadence that decides when to take one.
//
// The journal interprets no record. The scheduler's own replay entry
// point (core.Scheduler.Replay) applies the six scheduler kinds, and the
// service applies its two worker kinds.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"botgrid/internal/core"
	"botgrid/internal/frame"
)

// Kind enumerates journal record types. The first six mirror
// core.MutationKind one-to-one; the worker records are service-level
// events the scheduler does not see.
type Kind uint8

const (
	// KindBagSubmitted journals core.MutBagSubmitted.
	KindBagSubmitted Kind = 1
	// KindReplicaStarted journals core.MutReplicaStarted — the grant of a
	// replica lease to the worker owning the machine slot.
	KindReplicaStarted Kind = 2
	// KindTaskCompleted journals core.MutTaskCompleted (an accepted
	// result; sibling replicas are implicitly superseded).
	KindTaskCompleted Kind = 3
	// KindBagCompleted journals core.MutBagCompleted.
	KindBagCompleted Kind = 4
	// KindMachineDown journals core.MutMachineDown (lease expiry or a
	// worker-reported failure; any hosted replica is implicitly lost).
	KindMachineDown Kind = 5
	// KindMachineUp journals core.MutMachineUp.
	KindMachineUp Kind = 6
	// KindWorkerRegistered journals a worker's binding to a machine slot
	// (or a power update for an existing binding).
	KindWorkerRegistered Kind = 7
	// KindWorkerSeen journals a coarsened lease renewal for the worker on
	// a machine slot; recovery re-arms lease-expiry deadlines from it.
	KindWorkerSeen Kind = 8

	kindMax = KindWorkerSeen
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case KindBagSubmitted:
		return "bag-submitted"
	case KindReplicaStarted:
		return "replica-started"
	case KindTaskCompleted:
		return "task-completed"
	case KindBagCompleted:
		return "bag-completed"
	case KindMachineDown:
		return "machine-down"
	case KindMachineUp:
		return "machine-up"
	case KindWorkerRegistered:
		return "worker-registered"
	case KindWorkerSeen:
		return "worker-seen"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one journal entry. Fields beyond Kind and Time are populated
// per kind; see the Kind constants. Works and Worker are borrowed on
// encode and freshly allocated on decode.
type Record struct {
	Kind    Kind
	Time    float64
	Bag     int
	Task    int
	Machine int
	Seq     uint64
	Restart bool

	// KindBagSubmitted only.
	Granularity float64
	Works       []float64

	// KindWorkerRegistered only.
	Worker string
	Power  float64
}

// FromMutation converts a scheduler mutation into its journal record.
func FromMutation(m core.Mutation) Record {
	return Record{
		Kind:        Kind(m.Kind), // kinds 1..6 match by construction
		Time:        m.Time,
		Bag:         m.Bag,
		Task:        m.Task,
		Machine:     m.Machine,
		Seq:         m.Seq,
		Restart:     m.Restart,
		Granularity: m.Granularity,
		Works:       m.Works,
	}
}

// Mutation converts a scheduler record back into the mutation it journals,
// the inverse of FromMutation. A worker record's kind names no
// core.MutationKind, and core.Scheduler.Replay refuses it.
func (r *Record) Mutation() core.Mutation {
	return core.Mutation{Kind: core.MutationKind(r.Kind), Time: r.Time, Bag: r.Bag, Task: r.Task,
		Machine: r.Machine, Seq: r.Seq, Restart: r.Restart, Granularity: r.Granularity, Works: r.Works}
}

// ErrCorrupt reports an undecodable record payload.
var ErrCorrupt = errors.New("journal: corrupt record")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// EncodeRecord appends r's binary payload (without framing) to dst and
// returns the extended slice. The layout is one kind byte, the time, then
// kind-specific fields in internal/frame's payload encoding.
func EncodeRecord(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Kind))
	dst = frame.AppendF64(dst, r.Time)
	switch r.Kind {
	case KindBagSubmitted:
		dst = binary.AppendUvarint(dst, uint64(r.Bag))
		dst = frame.AppendF64(dst, r.Granularity)
		dst = frame.AppendFloats(dst, r.Works)
	case KindReplicaStarted:
		dst = binary.AppendUvarint(dst, uint64(r.Bag))
		dst = binary.AppendUvarint(dst, uint64(r.Task))
		dst = binary.AppendUvarint(dst, uint64(r.Machine))
		dst = binary.AppendUvarint(dst, r.Seq)
		dst = append(dst, b2u8(r.Restart))
	case KindTaskCompleted:
		dst = binary.AppendUvarint(dst, uint64(r.Bag))
		dst = binary.AppendUvarint(dst, uint64(r.Task))
		dst = binary.AppendUvarint(dst, r.Seq)
	case KindBagCompleted:
		dst = binary.AppendUvarint(dst, uint64(r.Bag))
	case KindMachineDown, KindMachineUp, KindWorkerSeen:
		dst = binary.AppendUvarint(dst, uint64(r.Machine))
	case KindWorkerRegistered:
		dst = binary.AppendUvarint(dst, uint64(r.Machine))
		dst = frame.AppendF64(dst, r.Power)
		dst = frame.AppendString(dst, r.Worker)
	default:
		panic(fmt.Sprintf("journal: encoding unknown record kind %d", r.Kind))
	}
	return dst
}

// DecodeRecord parses one record payload. It never panics: any malformed,
// truncated or trailing-garbage input returns an error wrapping
// ErrCorrupt (and, for a field the cursor refused, the frame error too).
func DecodeRecord(data []byte) (Record, error) {
	var r Record
	d := frame.NewReader(data)
	r.Kind = Kind(d.U8())
	if d.Err() == nil && (r.Kind == 0 || r.Kind > kindMax) {
		return r, corrupt("unknown kind %d", r.Kind)
	}
	r.Time = d.F64()
	switch r.Kind {
	case KindBagSubmitted:
		r.Bag = d.Int()
		r.Granularity = d.F64()
		r.Works = d.Floats(nil, frame.MaxWorks)
	case KindReplicaStarted:
		r.Bag = d.Int()
		r.Task = d.Int()
		r.Machine = d.Int()
		r.Seq = d.Uvarint()
		r.Restart = d.U8() != 0
	case KindTaskCompleted:
		r.Bag = d.Int()
		r.Task = d.Int()
		r.Seq = d.Uvarint()
	case KindBagCompleted:
		r.Bag = d.Int()
	case KindMachineDown, KindMachineUp, KindWorkerSeen:
		r.Machine = d.Int()
	case KindWorkerRegistered:
		r.Machine = d.Int()
		r.Power = d.F64()
		r.Worker = string(d.Bytes(frame.MaxWorkerID))
	}
	if err := d.Done(); err != nil {
		return r, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if r.Time < 0 {
		return r, corrupt("bad time %v", r.Time)
	}
	switch r.Kind {
	case KindBagSubmitted:
		if len(r.Works) == 0 {
			return r, corrupt("bag with no tasks")
		}
		for _, w := range r.Works {
			if w < 0 {
				return r, corrupt("bad work %v", w)
			}
		}
	case KindWorkerRegistered:
		// Machine powers must be positive; the restored grid rejects
		// anything else.
		if r.Power <= 0 {
			return r, corrupt("bad power %v", r.Power)
		}
	}
	return r, nil
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}
