package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
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

// EncodeSnapshot renders st as a complete snapshot file image covering
// everything up to and including lsn — the exact bytes WriteSnapshot puts
// on disk. The replication layer ships these images verbatim to followers.
//
// The payload is json.Marshal(st)'s bytes, but the active bags are
// marshalled one at a time and spliced in: one Marshal of the whole state
// grows one buffer by doubling to the document's size, so a snapshot's
// cost jumped each time its backlog crossed a power of two.
func EncodeSnapshot(lsn uint64, st *State) ([]byte, error) {
	st.publish()
	bags, sched, rest := st.Sched.Bags, *st.Sched, *st
	if bags != nil {
		sched.Bags = []core.BagSnapshot{}
	}
	rest.Sched = &sched
	doc, err := json.Marshal(&rest)
	pieces := make([][]byte, len(bags))
	n := snapHeader + frame.HeaderSize + len(doc) + len(bags)
	for i := 0; i < len(bags) && err == nil; i++ {
		pieces[i], err = json.Marshal(&bags[i])
		n += len(pieces[i])
	}
	if err != nil {
		return nil, fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	cut := len(doc)
	if bags != nil {
		// Only numbers precede the bags, so the first match is the field.
		cut = bytes.Index(doc, []byte(`"bags":[`)) + len(`"bags":[`)
	}
	buf := make([]byte, snapHeader+frame.HeaderSize, n)
	copy(buf, snapMagic)
	binary.LittleEndian.PutUint64(buf[len(snapMagic):], lsn)
	buf = append(buf, doc[:cut]...)
	for i, p := range pieces {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, p...)
	}
	buf = append(buf, doc[cut:]...)
	frame.Fill(buf[snapHeader:snapHeader+frame.HeaderSize], buf[snapHeader+frame.HeaderSize:])
	return buf, nil
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
	st.MaxTime = st.Time
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
// after it stops).
func (j *Journal) WriteSnapshot(lsn uint64, st *State) (err error) {
	defer func() {
		if err != nil {
			j.noteError(err)
		}
	}()
	buf, err := EncodeSnapshot(lsn, st)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := WriteFileAtomic(j.dir, snapName(lsn), "snap.tmp", buf); err != nil {
		return err
	}
	cost := time.Since(start)

	j.mu.Lock()
	j.snapshots++
	j.lastSnapLSN = lsn
	j.lastSnapAt = time.Now()
	j.snapAppends = j.appends
	// EWMA of the measured snapshot cost feeds Young's formula.
	c := cost.Seconds()
	if j.snapCost == 0 {
		j.snapCost = c
	} else {
		j.snapCost = 0.5*j.snapCost + 0.5*c
	}
	j.mu.Unlock()

	j.prune(lsn)
	return nil
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
	tmpPath := filepath.Join(dir, tmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
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
