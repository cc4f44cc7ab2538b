package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"botgrid/internal/checkpoint"
	"botgrid/internal/core"
	"botgrid/internal/frame"
)

// WorkerSnapshot is the durable state of one worker registration: the
// binding of a worker ID to a grid machine slot, with the coarsened last
// lease-renewal time recovery uses to re-arm expiry deadlines.
type WorkerSnapshot struct {
	ID       string  `json:"id"`
	Machine  int     `json:"machine"`
	Power    float64 `json:"power"`
	LastSeen float64 `json:"last_seen"`
}

// CompletedBag archives a finished bag: the scheduler drops completed bags,
// but the service keeps serving their final status after recovery.
type CompletedBag struct {
	ID          int     `json:"id"`
	Arrival     float64 `json:"arrival"`
	Granularity float64 `json:"granularity"`
	DoneAt      float64 `json:"done_at"`
	Tasks       int     `json:"tasks"`
}

// State is the full durable state of the dispatch service as plain data,
// the payload of a snapshot: the scheduler snapshot plus the service-level
// worker table and completed bag archive. The journal only stores and
// loads it: recovery restores Sched with core.RestoreLiveScheduler and
// replays the log tail into that scheduler (see Recovered.Replay), so no
// record is ever applied to a State.
type State struct {
	// Time is the service clock when the snapshot was captured.
	Time float64 `json:"time"`
	// Sched is the scheduler's durable state.
	Sched *core.SchedulerSnapshot `json:"sched"`
	// Workers lists worker registrations in registration order.
	Workers []WorkerSnapshot `json:"workers,omitempty"`
	// Completed archives finished bags in completion order.
	Completed []CompletedBag `json:"completed,omitempty"`
	// Service is an opaque blob the service layer round-trips through
	// snapshots (dispatch counters and the like); the journal does not
	// interpret it.
	Service json.RawMessage `json:"service,omitempty"`
}

// NewState returns an empty pre-boot State.
func NewState() *State {
	return &State{Sched: &core.SchedulerSnapshot{}}
}

// Snapshot file layout: 8-byte magic "BGSNAP1\n", uint64 LE LSN (the last
// journal record the snapshot covers, echoing the filename), then one
// untyped internal/frame frame whose payload is the JSON of a State.
// Snapshots are written to a temp file, fsynced and renamed into place, so
// a crash mid-snapshot leaves either the old set or a complete new file;
// a torn temp file never carries the .snap name.

const (
	snapMagic  = "BGSNAP1\n"
	snapHeader = len(snapMagic) + 8 // magic + LSN; the payload frame follows
)

func snapName(lsn uint64) string {
	return fmt.Sprintf("%020d.snap", lsn)
}

func parseSnapName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".snap")
	if !ok || len(base) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSnapshots returns the snapshot LSNs in dir, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, e := range ents {
		if lsn, ok := parseSnapName(e.Name()); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// writeSnapshotFile streams st's snapshot image covering lsn into the
// empty file f. The payload passes through a small buffer while its length
// and checksum are summed, and the frame header they make is written last,
// in place: a snapshot's memory cost is the encoding of one bag, not of
// the backlog.
func writeSnapshotFile(f *os.File, lsn uint64, st *State) error {
	if _, err := f.Write(snapshotHeader(lsn, sumWriter{})); err != nil {
		return err
	}
	sum := sumWriter{w: f}
	buf := bufio.NewWriterSize(&sum, 64<<10)
	if err := writeSnapshotPayload(buf, st); err != nil {
		return err
	}
	if err := buf.Flush(); err != nil {
		return err
	}
	_, err := f.WriteAt(snapshotHeader(lsn, sum)[snapHeader:], int64(snapHeader))
	return err
}

// snapshotHeader returns a snapshot file's header and the header of its
// payload frame, for the payload sum has seen.
func snapshotHeader(lsn uint64, sum sumWriter) []byte {
	hdr := make([]byte, snapHeader+frame.HeaderSize)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint64(hdr[len(snapMagic):], lsn)
	frame.FillStreamed(hdr[snapHeader:], sum.n, sum.crc)
	return hdr
}

// writeSnapshotPayload writes json.Marshal(st)'s bytes to w, the active
// bags encoded one at a time: the state without its bags is marshalled,
// and the bags are spliced in where its empty bag list stands. No encoding
// of the whole backlog is ever held, so a snapshot's cost follows its
// backlog instead of jumping each time the backlog crosses a power of two,
// as one growing buffer would.
func writeSnapshotPayload(w io.Writer, st *State) error {
	bags, sched, rest := st.Sched.Bags, *st.Sched, *st
	if bags != nil {
		sched.Bags = []core.BagSnapshot{}
	}
	rest.Sched = &sched
	doc, err := json.Marshal(&rest)
	if err != nil {
		return fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	cut := len(doc)
	if bags != nil {
		// Only numbers precede the bags, so the first match is the field.
		cut = bytes.Index(doc, []byte(`"bags":[`)) + len(`"bags":[`)
	}
	if _, err := w.Write(doc[:cut]); err != nil {
		return err
	}
	enc := json.NewEncoder(valueWriter{w})
	for i := range bags {
		if i > 0 {
			if _, err := w.Write([]byte{','}); err != nil {
				return err
			}
		}
		if err := enc.Encode(&bags[i]); err != nil {
			return fmt.Errorf("journal: marshal snapshot bag %d: %w", bags[i].ID, err)
		}
	}
	_, err = w.Write(doc[cut:])
	return err
}

// valueWriter passes on what a json.Encoder writes less the newline the
// encoder ends each value with, so a value's bytes are json.Marshal's.
// Compact JSON holds no raw newline, so a write ending in one ends a value.
type valueWriter struct{ w io.Writer }

func (v valueWriter) Write(b []byte) (int, error) {
	out := b
	if n := len(b); n > 0 && b[n-1] == '\n' {
		out = b[:n-1]
	}
	if _, err := v.w.Write(out); err != nil {
		return 0, err
	}
	return len(b), nil
}

// sumWriter passes bytes on to w and keeps their count and CRC32-IEEE:
// what the header of a frame streamed through it needs.
type sumWriter struct {
	w   io.Writer
	n   int
	crc uint32
}

func (s *sumWriter) Write(b []byte) (int, error) {
	s.n += len(b)
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
	return s.w.Write(b)
}

// DecodeSnapshot validates a snapshot image (the full file contents,
// header included) and returns the LSN it covers and the decoded state.
func DecodeSnapshot(data []byte) (uint64, *State, error) {
	if len(data) < snapHeader || string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("journal: bad snapshot header")
	}
	lsn := binary.LittleEndian.Uint64(data[len(snapMagic):])
	payload, rest, err := frame.Next(data[snapHeader:])
	if err != nil {
		return 0, nil, fmt.Errorf("journal: snapshot: %w", err)
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("journal: snapshot: %d bytes after the payload", len(rest))
	}
	st := NewState()
	if err := json.Unmarshal(payload, st); err != nil {
		return 0, nil, fmt.Errorf("journal: snapshot: %w", err)
	}
	if st.Sched == nil {
		return 0, nil, fmt.Errorf("journal: snapshot missing scheduler state")
	}
	return lsn, st, nil
}

// readSnapshot loads and validates the snapshot at path.
func readSnapshot(path string, wantLSN uint64) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(path)
	lsn, st, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", base, err)
	}
	if lsn != wantLSN {
		return nil, fmt.Errorf("journal: %s: header LSN %d != filename", base, lsn)
	}
	return st, nil
}

// InstallSnapshot replaces the journal directory's entire history with the
// given snapshot image: every log segment is deleted, the image becomes the
// sole recovery point, and the next Open resumes at LSN+1 with zero replay.
// The directory must not have an open Journal. Replication followers use it
// to adopt a leader's state wholesale — any locally diverged, never-acked
// log tail is discarded with the segments. The META epoch file is kept (or
// created for a brand-new follower directory). Returns the covered LSN.
//
// Crash ordering: segments are deleted before the new snapshot lands, so an
// interruption leaves either the old snapshots (state rewinds; the next
// leader session re-installs) or the complete new one — never a snapshot
// with stale segments replayed on top.
func InstallSnapshot(dir string, data []byte) (uint64, error) {
	lsn, _, err := DecodeSnapshot(data)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if _, _, err := loadOrInitMeta(dir, time.Time{}); err != nil {
		return 0, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	for _, first := range segs {
		if err := os.Remove(filepath.Join(dir, segName(first))); err != nil {
			return 0, err
		}
	}
	if err := WriteFileAtomic(dir, snapName(lsn), "snap.tmp", data); err != nil {
		return 0, err
	}
	if snaps, err := listSnapshots(dir); err == nil {
		for _, s := range snaps {
			if s != lsn {
				os.Remove(filepath.Join(dir, snapName(s)))
			}
		}
	}
	return lsn, nil
}

// WriteSnapshot persists st as the snapshot covering everything up to and
// including lsn, then prunes: segments whose records all fall at or below
// lsn are deleted, as are all but the two most recent snapshots. A failure
// is returned and also kept for Metrics.Err; the log itself keeps running.
// Callers must serialize WriteSnapshot calls (the service's periodic step
// is the only caller while running; the final shutdown snapshot happens
// after it stops). The image is streamed to the file, never held whole.
func (j *Journal) WriteSnapshot(lsn uint64, st *State) error {
	start := time.Now()
	err := writeAtomic(j.dir, snapName(lsn), "snap.tmp", func(f *os.File) error {
		return writeSnapshotFile(f, lsn, st)
	})
	if err != nil {
		j.noteError(err)
		return err
	}
	c := time.Since(start).Seconds()
	j.mu.Lock()
	j.snapshots++
	j.lastSnapLSN = lsn
	j.lastSnapAt = time.Now()
	j.snapAppends = j.appends
	// EWMA of the measured snapshot cost feeds Young's formula.
	if j.snapCost == 0 {
		j.snapCost = c
	} else {
		j.snapCost = 0.5*j.snapCost + 0.5*c
	}
	j.mu.Unlock()

	j.prune(lsn)
	return nil
}

// ReadSnapshotFile returns the snapshot file covering lsn as WriteSnapshot
// wrote it: the image a replication leader ships to a follower catching
// up. Two later snapshots prune the file, and the read then fails.
func (j *Journal) ReadSnapshotFile(lsn uint64) ([]byte, error) {
	return os.ReadFile(filepath.Join(j.dir, snapName(lsn)))
}

// prune removes snapshots and fully-covered segments made obsolete by a
// snapshot at lsn. Best-effort: pruning failures leave extra files behind
// but never compromise recovery.
func (j *Journal) prune(lsn uint64) {
	if snaps, err := listSnapshots(j.dir); err == nil && len(snaps) > 2 {
		for _, s := range snaps[:len(snaps)-2] {
			os.Remove(filepath.Join(j.dir, snapName(s)))
		}
	}
	segs, err := listSegments(j.dir)
	if err != nil {
		return
	}
	// Segment i covers [segs[i], segs[i+1]-1]; it is obsolete once every
	// record is <= lsn. The last segment is open-ended and always kept.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1]-1 <= lsn {
			os.Remove(filepath.Join(j.dir, segName(segs[i])))
		}
	}
}

// snapshotInterval returns the current Young's-formula snapshot interval
// from the measured snapshot cost and the configured MTBF, clamped to
// [minSnapInterval, maxSnapInterval].
func (j *Journal) snapshotInterval() time.Duration {
	j.mu.Lock()
	cost := j.snapCost
	j.mu.Unlock()
	if cost <= 0 {
		cost = 0.01 // pre-first-snapshot seed; replaced by measurement
	}
	tau := checkpoint.YoungInterval(cost, j.opts.SnapshotMTBF.Seconds())
	iv := time.Duration(tau * float64(time.Second))
	if iv < minSnapInterval {
		iv = minSnapInterval
	}
	if iv > maxSnapInterval {
		iv = maxSnapInterval
	}
	return iv
}

const (
	minSnapInterval = time.Second
	maxSnapInterval = 5 * time.Minute
)

// SnapshotDue reports whether a snapshot should be taken now. The cadence
// follows Young's formula τ = sqrt(2·C·MTBF) with C the EWMA of measured
// snapshot cost and MTBF the configured expected crash interval — the same
// first-order optimum internal/checkpoint applies to task checkpoint
// intervals, here balancing snapshot work against replay length after a
// crash. No snapshot is due while the journal has no appends since the
// last one. τ runs on the wall clock, because C is measured on it.
func (j *Journal) SnapshotDue() bool {
	j.mu.Lock()
	fresh := j.appends > j.snapAppends
	last := j.lastSnapAt
	j.mu.Unlock()
	return fresh && time.Since(last) >= j.snapshotInterval()
}

// WriteFileAtomic replaces dir/name with data so that a crash leaves
// either the old file or the complete new one, never a torn one: it writes
// the scratch file dir/tmp, fsyncs it, renames it over name and fsyncs dir.
// A scratch file left behind by an interrupted call is truncated and
// reused by the next one; readers never look at it.
func WriteFileAtomic(dir, name, tmp string, data []byte) error {
	return writeAtomic(dir, name, tmp, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic with the contents written by write into
// the empty temp file.
func writeAtomic(dir, name, tmp string, write func(f *os.File) error) error {
	tmpPath := filepath.Join(dir, tmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
