package journal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"botgrid/internal/frame"
)

// FsyncMode selects the durability/latency trade-off of the append path.
type FsyncMode int

const (
	// FsyncBatch fsyncs every flush (group commit). The syncer flushes as
	// soon as anything is pending, so a batch is whatever arrived during
	// the previous write+fsync and its size follows the disk's fsync cost.
	// The default; WaitDurable returns only once lsn's fsync is done.
	FsyncBatch FsyncMode = iota
	// FsyncOff writes records to the OS without ever fsyncing. An OS
	// crash can lose the tail; a process crash cannot. WaitDurable
	// returns immediately in this mode.
	FsyncOff
)

// ParseFsyncMode parses "batch" or "off". "always" is accepted as batch:
// every flush is already fsynced as soon as a record is pending.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "batch", "always":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	default:
		return FsyncBatch, fmt.Errorf("journal: unknown fsync mode %q (want batch or off)", s)
	}
}

// String names the mode.
func (m FsyncMode) String() string {
	if m == FsyncOff {
		return "off"
	}
	return "batch"
}

// Options configures a Journal.
type Options struct {
	// Dir is the journal directory (created if absent).
	Dir string
	// Fsync selects the append durability mode.
	Fsync FsyncMode
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 4 MiB.
	SegmentBytes int64
	// SnapshotMTBF is the expected time between service crashes, the MTBF
	// input to Young's formula for the snapshot cadence. Default 10min.
	SnapshotMTBF time.Duration
	// Epoch is the wall-clock origin stored with a freshly created
	// journal; zero means now. Reopening an existing journal returns its
	// stored epoch instead.
	Epoch time.Time
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotMTBF <= 0 {
		o.SnapshotMTBF = 10 * time.Minute
	}
	return o
}

// Recovered is what Open found on disk: the newest valid snapshot and the
// log tail after it, which Open only scans (checking every frame and
// truncating a torn final one) and Replay streams back, so the tail is
// never held whole in memory.
type Recovered struct {
	// Fresh is true when the journal directory was newly initialized.
	Fresh bool
	// State is the snapshot the tail continues (an empty State when
	// recovery starts from the beginning of the log).
	State *State
	// Epoch is the persisted wall-clock origin of the service timeline.
	Epoch time.Time
	// SnapshotLSN is the LSN of the snapshot recovery started from (0 if
	// recovery replays the log from the beginning).
	SnapshotLSN uint64
	// LastLSN is the last valid record recovered from the log.
	LastLSN uint64
	// Records is the number of log records in the tail, the records
	// Replay streams.
	Records int
	// SegmentsScanned counts log segments read during recovery.
	SegmentsScanned int
	// TornBytes is the size of the invalid tail truncated from the last
	// segment (a record half-written when the crash hit).
	TornBytes int64
	// SnapshotsSkipped counts newer snapshot files that failed validation
	// and were ignored in favor of an older one.
	SnapshotsSkipped int
	// Elapsed is the wall time Open took to find and scan all this.
	Elapsed time.Duration

	dir  string
	segs []uint64 // first LSNs of the segments holding tail records
}

// Replay decodes the tail — every record after SnapshotLSN, through
// LastLSN — and calls fn with each in LSN order, reading the segments
// again one at a time. The *Record is only valid during the call. An
// error from decoding or from fn stops the replay, naming the segment and
// record it came from. Call Replay before the journal writes a snapshot,
// which may prune the tail's segments.
func (rec *Recovered) Replay(fn func(lsn uint64, r *Record) error) error {
	n := 0
	var r Record
	for _, first := range rec.segs {
		path := filepath.Join(rec.dir, segName(first))
		_, err := scanSegment(path, func(lsn uint64, payload []byte) error {
			if lsn <= rec.SnapshotLSN || lsn > rec.LastLSN {
				return nil
			}
			var derr error
			if r, derr = DecodeRecord(payload); derr == nil {
				derr = fn(lsn, &r)
			}
			if derr != nil {
				return fmt.Errorf("%s: record %d: %w", filepath.Base(path), lsn, derr)
			}
			n++
			return nil
		})
		if err != nil {
			return err
		}
	}
	if n != rec.Records {
		return fmt.Errorf("journal: replayed %d of %d tail records; the log changed since Open", n, rec.Records)
	}
	return nil
}

// ErrClosed reports use of a closed journal.
var ErrClosed = errors.New("journal: closed")

// Journal is an append-only, CRC-checked, segmented record log with
// group-committed fsync and snapshot-based truncation. Append and
// WaitDurable are safe for concurrent use; WriteSnapshot calls must be
// serialized by the caller.
type Journal struct {
	opts Options
	dir  string

	mu    sync.Mutex
	syncC *sync.Cond // signals the syncer that records are pending
	doneC *sync.Cond // broadcast after every flush attempt

	// Double-buffered pending encodings: appenders fill pend while the
	// syncer writes the previous batch; the buffers swap roles each flush.
	pend      []byte
	spare     []byte
	pendCount int

	nextLSN   uint64 // LSN the next Append assigns
	syncedLSN uint64 // all records <= this are flushed (and fsynced unless FsyncOff)

	f       *os.File // active segment; owned by the syncer while it runs
	segSize int64

	err      error // first fatal write error; fails all further appends
	closed   bool
	loopDone bool
	loopExit chan struct{}

	// Counters (see Metrics).
	appends     uint64
	fsyncs      uint64
	syncedRecs  uint64
	snapshots   uint64
	lastSnapLSN uint64
	lastSnapAt  time.Time
	snapAppends uint64
	snapCost    float64
	snapErr     error
}

// Open initializes or recovers the journal in opts.Dir: it loads the
// newest valid snapshot, scans every later log record (truncating a torn
// final record), opens a fresh active segment, and starts the group-commit
// syncer. The returned Recovered carries the snapshot and the scanned
// tail; restore the snapshot with core.RestoreLiveScheduler and replay
// the tail into it (Recovered.Replay) before appending new records.
func Open(opts Options) (*Journal, *Recovered, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, errors.New("journal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	rec := &Recovered{dir: opts.Dir}
	epoch, fresh, err := loadOrInitMeta(opts.Dir, opts.Epoch)
	if err != nil {
		return nil, nil, err
	}
	rec.Fresh = fresh
	rec.Epoch = epoch

	// Newest snapshot that validates wins; corrupt ones (a crash can tear
	// only the un-renamed temp file, but defend anyway) fall back to older.
	snaps, err := listSnapshots(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	var st *State
	var snapLSN uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		s, serr := readSnapshot(filepath.Join(opts.Dir, snapName(snaps[i])), snaps[i])
		if serr == nil {
			st, snapLSN = s, snaps[i]
			break
		}
		rec.SnapshotsSkipped++
	}
	if st == nil {
		st = NewState()
	}
	rec.SnapshotLSN = snapLSN
	rec.State = st

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	next := snapLSN + 1
	for i, first := range segs {
		if i+1 < len(segs) && segs[i+1] <= next {
			continue // every record already covered by the snapshot
		}
		path := filepath.Join(opts.Dir, segName(first))
		res, err := scanSegment(path, nil)
		if err != nil {
			return nil, nil, err
		}
		rec.SegmentsScanned++
		if res.firstLSN != first {
			return nil, nil, fmt.Errorf("journal: %s: header LSN %d != filename", segName(first), res.firstLSN)
		}
		if first > next {
			return nil, nil, fmt.Errorf("journal: log gap: segment %s begins after record %d", segName(first), next-1)
		}
		if res.torn > 0 {
			if i+1 < len(segs) {
				return nil, nil, fmt.Errorf("journal: %s: %d invalid bytes mid-log", segName(first), res.torn)
			}
			// Torn tail of the final segment: the record being written
			// when the crash hit. Drop it; it was never acknowledged.
			if err := os.Truncate(path, res.goodSize); err != nil {
				return nil, nil, err
			}
			rec.TornBytes = res.torn
		}
		if tail := int(res.nextLSN) - int(max(res.firstLSN, snapLSN+1)); tail > 0 {
			rec.segs = append(rec.segs, first)
			rec.Records += tail
		}
		if res.nextLSN > next {
			next = res.nextLSN
		}
	}
	rec.LastLSN = next - 1
	rec.Elapsed = time.Since(start)

	j := &Journal{
		opts:       opts,
		dir:        opts.Dir,
		nextLSN:    next,
		syncedLSN:  next - 1,
		lastSnapAt: start,
		loopExit:   make(chan struct{}),
	}
	j.syncC = sync.NewCond(&j.mu)
	j.doneC = sync.NewCond(&j.mu)
	if err := j.openActiveSegment(next); err != nil {
		return nil, nil, err
	}
	go j.syncLoop()
	return j, rec, nil
}

// openActiveSegment creates (or resets a record-less leftover of) the
// segment whose first record will be lsn. Recovery always starts a fresh
// segment rather than appending to the truncated one; the old segment
// stays behind until a snapshot prunes it.
func (j *Journal) openActiveSegment(lsn uint64) error {
	path := filepath.Join(j.dir, segName(lsn))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(segmentHeader(lsn)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(j.dir); err != nil {
		f.Close()
		return err
	}
	j.f = f
	j.segSize = int64(segHeader)
	return nil
}

// loadOrInitMeta reads the journal META file, creating it with the given
// (or current) epoch on first use. The epoch anchors the service's
// float64-seconds timeline to wall time across restarts.
func loadOrInitMeta(dir string, epoch time.Time) (time.Time, bool, error) {
	path := filepath.Join(dir, "META")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if epoch.IsZero() {
			epoch = time.Now()
		}
		content := fmt.Sprintf("botgrid-journal v1\nepoch %d\n", epoch.UnixNano())
		if werr := WriteFileAtomic(dir, "META", "META.tmp", []byte(content)); werr != nil {
			return time.Time{}, false, werr
		}
		return epoch, true, nil
	}
	if err != nil {
		return time.Time{}, false, err
	}
	var nanos int64
	if _, err := fmt.Sscanf(string(data), "botgrid-journal v1\nepoch %d\n", &nanos); err != nil {
		return time.Time{}, false, fmt.Errorf("journal: unreadable META file: %w", err)
	}
	return time.Unix(0, nanos), false, nil
}

// Append encodes r and queues it for the group-commit syncer, returning
// the record's LSN. The record is NOT durable yet; pair with WaitDurable
// when the caller must not acknowledge before durability.
//
//botlint:hotpath
func (j *Journal) Append(r *Record) (uint64, error) {
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return 0, err
	}
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	j.pend = EncodeRecordFramed(j.pend, r)
	lsn := j.nextLSN
	j.nextLSN++
	j.pendCount++
	j.appends++
	j.syncC.Signal()
	j.mu.Unlock()
	return lsn, nil
}

// EncodeRecordFramed appends r's framed encoding to dst. Exposed for the
// scratch-free encode path and for tests that build segment images.
//
//botlint:hotpath
func EncodeRecordFramed(dst []byte, r *Record) []byte {
	// Encode into the tail of dst past a reserved frame header, then fill
	// the header in — one pass, no scratch buffer.
	var hdr [frame.HeaderSize]byte
	base := len(dst)
	dst = append(dst, hdr[:]...)
	dst = EncodeRecord(dst, r)
	frame.Fill(dst[base:base+frame.HeaderSize], dst[base+frame.HeaderSize:])
	return dst
}

// WaitDurable blocks until record lsn is durable under the journal's
// fsync mode: fsynced (batch), or merely accepted (off, returns
// immediately). It returns the journal's fatal error, if any.
func (j *Journal) WaitDurable(lsn uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.opts.Fsync == FsyncOff {
		return j.err
	}
	for j.syncedLSN < lsn && j.err == nil && !j.loopDone {
		j.doneC.Wait()
	}
	if j.err != nil {
		return j.err
	}
	if j.syncedLSN < lsn {
		return ErrClosed
	}
	return nil
}

// LastLSN returns the LSN of the most recently appended record (0 when the
// journal has none).
func (j *Journal) LastLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextLSN - 1
}

// Close drains pending records, fsyncs, and closes the active segment.
// Safe to call twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	already := j.closed
	j.closed = true
	j.syncC.Signal()
	j.mu.Unlock()
	<-j.loopExit
	j.mu.Lock()
	defer j.mu.Unlock()
	if !already && j.f != nil {
		if err := j.f.Sync(); err != nil && j.err == nil {
			j.err = err
		}
		if err := j.f.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.f = nil
	}
	return j.err
}

// syncLoop is the group-commit syncer: it swaps out the pending buffer,
// writes it to the active segment (rotating first when full), fsyncs per
// the mode, and publishes the new durable LSN. One goroutine per journal.
// It never waits on a timer: the records that arrive while one write+fsync
// runs are the next batch, so the batch grows with the fsync cost.
func (j *Journal) syncLoop() {
	j.mu.Lock()
	for {
		for j.pendCount == 0 && !j.closed && j.err == nil {
			j.syncC.Wait()
		}
		if j.err != nil || (j.closed && j.pendCount == 0) {
			break
		}
		batch := j.pend
		count := j.pendCount
		last := j.nextLSN - 1
		first := last - uint64(count) + 1
		j.pend = j.spare[:0]
		j.spare = nil
		j.pendCount = 0
		rotate := j.segSize >= j.opts.SegmentBytes
		j.mu.Unlock()

		var err error
		if rotate {
			err = j.rotateSegment(first)
		}
		if err == nil {
			_, err = j.f.Write(batch)
		}
		if err == nil && j.opts.Fsync != FsyncOff {
			err = j.f.Sync()
		}

		j.mu.Lock()
		j.spare = batch[:0]
		if err != nil {
			j.err = err
		} else {
			if rotate {
				j.segSize = int64(segHeader)
			}
			j.segSize += int64(len(batch))
			j.syncedLSN = last
			if j.opts.Fsync != FsyncOff {
				j.fsyncs++
				j.syncedRecs += uint64(count)
			}
		}
		j.doneC.Broadcast()
	}
	j.loopDone = true
	j.doneC.Broadcast()
	j.mu.Unlock()
	close(j.loopExit)
}

// rotateSegment closes the active segment and starts a new one whose first
// record is lsn. Called only from the syncer.
func (j *Journal) rotateSegment(lsn uint64) error {
	if err := j.f.Sync(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	j.f = nil
	return j.openActiveSegment(lsn)
}

// noteError records a non-fatal error (snapshot failures) for Metrics;
// the log itself keeps running.
func (j *Journal) noteError(err error) {
	j.mu.Lock()
	if j.snapErr == nil {
		j.snapErr = err
	}
	j.mu.Unlock()
}

// Metrics is a point-in-time snapshot of journal counters.
type Metrics struct {
	// Appends counts records accepted by Append.
	Appends uint64 `json:"appends"`
	// Fsyncs counts fsync calls on the log; RecordsPerFsync is the mean
	// group-commit batch size (records made durable per fsync).
	Fsyncs          uint64  `json:"fsyncs"`
	RecordsPerFsync float64 `json:"records_per_fsync"`
	// PendingRecords is the current un-flushed backlog.
	PendingRecords int `json:"pending_records"`
	// LastLSN / DurableLSN are the newest assigned and newest flushed
	// record numbers.
	LastLSN    uint64 `json:"last_lsn"`
	DurableLSN uint64 `json:"durable_lsn"`
	// Snapshots counts snapshots written; LastSnapshotLSN is the newest
	// one's cover point and LastSnapshotAgeSec its age (-1 before the
	// first snapshot).
	Snapshots          uint64  `json:"snapshots"`
	LastSnapshotLSN    uint64  `json:"last_snapshot_lsn"`
	LastSnapshotAgeSec float64 `json:"last_snapshot_age_sec"`
	// SnapshotCostSec is the EWMA snapshot cost driving the Young-formula
	// cadence; SnapshotIntervalSec is the resulting interval.
	SnapshotCostSec     float64 `json:"snapshot_cost_sec"`
	SnapshotIntervalSec float64 `json:"snapshot_interval_sec"`
	// Err is the first fatal log error or background snapshot error.
	Err string `json:"err,omitempty"`
}

// Metrics returns current journal counters.
func (j *Journal) Metrics() Metrics {
	iv := j.snapshotInterval().Seconds()
	j.mu.Lock()
	defer j.mu.Unlock()
	m := Metrics{
		Appends:             j.appends,
		Fsyncs:              j.fsyncs,
		PendingRecords:      j.pendCount,
		LastLSN:             j.nextLSN - 1,
		DurableLSN:          j.syncedLSN,
		Snapshots:           j.snapshots,
		LastSnapshotLSN:     j.lastSnapLSN,
		LastSnapshotAgeSec:  -1,
		SnapshotCostSec:     j.snapCost,
		SnapshotIntervalSec: iv,
	}
	if j.fsyncs > 0 {
		m.RecordsPerFsync = float64(j.syncedRecs) / float64(j.fsyncs)
	}
	if j.snapshots > 0 {
		m.LastSnapshotAgeSec = time.Since(j.lastSnapAt).Seconds()
	}
	switch {
	case j.err != nil:
		m.Err = j.err.Error()
	case j.snapErr != nil:
		m.Err = j.snapErr.Error()
	}
	return m
}
