package journal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"botgrid/internal/core"
)

// testOptions returns journal options for a fresh temp directory.
func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		Dir:   t.TempDir(),
		Fsync: FsyncOff, // unit tests don't need real fsyncs
	}
}

// script is a small but complete record sequence: one bag of two tasks on
// a one-machine grid, exercising dispatch, completion, failure-resubmission
// and both worker record kinds.
func script() []Record {
	return []Record{
		{Kind: KindBagSubmitted, Time: 1, Bag: 0, Granularity: 2000, Works: []float64{100, 200}},
		{Kind: KindWorkerRegistered, Time: 2, Machine: 0, Worker: "w0", Power: 2},
		{Kind: KindMachineUp, Time: 2, Machine: 0},
		{Kind: KindReplicaStarted, Time: 3, Bag: 0, Task: 0, Machine: 0, Seq: 1},
		{Kind: KindTaskCompleted, Time: 5, Bag: 0, Task: 0, Seq: 1},
		{Kind: KindReplicaStarted, Time: 6, Bag: 0, Task: 1, Machine: 0, Seq: 2},
		{Kind: KindMachineDown, Time: 7, Machine: 0},
		{Kind: KindWorkerSeen, Time: 8, Machine: 0},
	}
}

// checkScriptState verifies the State a full replay of script() must yield.
func checkScriptState(t *testing.T, st *State) {
	t.Helper()
	s := st.Sched
	if s.Submitted != 1 || s.NextBagID != 1 || s.TasksCompleted != 1 ||
		s.ReplicasStarted != 2 || s.Failures != 1 || s.Completed != 0 {
		t.Fatalf("scheduler counters = %+v", *s)
	}
	if len(s.Bags) != 1 || len(s.Replicas) != 0 {
		t.Fatalf("got %d bags, %d replicas", len(s.Bags), len(s.Replicas))
	}
	b := s.Bags[0]
	if b.FirstStart != 3 || !reflect.DeepEqual(b.Pending, []int{1}) {
		t.Fatalf("bag = %+v", b)
	}
	t0, t1 := b.Tasks[0], b.Tasks[1]
	if t0.State != core.TaskDone || t0.DoneAt != 5 || t0.FirstStart != 3 {
		t.Fatalf("task 0 = %+v", t0)
	}
	if t1.State != core.TaskPending || !t1.Restart || t1.Failures != 1 ||
		t1.IdleSince != 7 || t1.IdleAccum != 5 { // idle 1..6 before starting
		t.Fatalf("task 1 = %+v", t1)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "w0" || st.Workers[0].LastSeen != 8 {
		t.Fatalf("workers = %+v", st.Workers)
	}
}

// scriptState replays rec's tail onto its snapshot as recovery does and
// returns the state, for checkScriptState.
func scriptState(t *testing.T, rec *Recovered) *State {
	t.Helper()
	st := recovered(t, rec, 1).state()
	return &st
}

// mustAppend appends recs and waits for the last to be durable.
func mustAppend(t *testing.T, j *Journal, recs []Record) uint64 {
	t.Helper()
	var last uint64
	for i := range recs {
		lsn, err := j.Append(&recs[i])
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		last = lsn
	}
	if err := j.WaitDurable(last); err != nil {
		t.Fatalf("WaitDurable(%d): %v", last, err)
	}
	return last
}

func TestRecordRoundTrip(t *testing.T) {
	recs := script()
	recs = append(recs, Record{Kind: KindReplicaStarted, Time: 9.5, Bag: 3,
		Task: 17, Machine: 42, Seq: 1 << 40, Restart: true})
	for i, want := range recs {
		payload := EncodeRecord(nil, &want)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d (%v): %v", i, want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	valid := EncodeRecord(nil, &Record{Kind: KindBagCompleted, Time: 1, Bag: 3})
	cases := map[string][]byte{
		"empty":          {},
		"unknown kind":   {99, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"kind zero":      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncated time": {byte(KindBagCompleted), 1, 2},
		"truncated body": valid[:len(valid)-1],
		"trailing bytes": append(append([]byte{}, valid...), 7),
		"empty bag": EncodeRecord(nil, &Record{
			Kind: KindBagSubmitted, Time: 1, Bag: 0, Works: nil}),
		"nan time": EncodeRecord(nil, &Record{
			Kind: KindBagCompleted, Time: math.NaN(), Bag: 0}),
		"negative time": EncodeRecord(nil, &Record{
			Kind: KindBagCompleted, Time: -1, Bag: 0}),
	}
	for name, payload := range cases {
		if _, err := DecodeRecord(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestReplayScript replays script() through the scheduler's replay and
// the worker rules, then leaves replay mode: the state is the one
// checkScriptState describes, and the scheduler dispatches from it.
func TestReplayScript(t *testing.T) {
	p, err := newReplayer(NewState(), 1, core.FCFSShare)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range script() {
		if err := p.apply(&r); err != nil {
			t.Fatalf("replay %v: %v", r.Kind, err)
		}
	}
	st := p.state()
	checkScriptState(t, &st)

	// Machine 0 holds no replica, so it must be down when replay ends.
	p.grid.Machines[0].ForceFail(8)
	if err := p.sched.EndReplay(); err != nil {
		t.Fatalf("EndReplay: %v", err)
	}
	s := p.sched
	if s.PendingTasks() != 1 || s.TasksCompleted() != 1 || s.ReplicaFailures() != 1 || s.FreeMachines() != 0 {
		t.Fatalf("after replay: pending=%d done=%d failures=%d free=%d",
			s.PendingTasks(), s.TasksCompleted(), s.ReplicaFailures(), s.FreeMachines())
	}
	p.clock.t = 9
	p.grid.Machines[0].ForceRepair(9)
	s.MachineRepaired(p.grid.Machines[0])
	if r := s.ReplicaOn(p.grid.Machines[0]); r == nil || r.Task.ID != 1 || r.Seq != 3 {
		t.Fatalf("the repaired machine got replica %+v, want task 1 under token 3", r)
	}
}

type fixedClock struct{ t float64 }

func (c *fixedClock) Now() float64 { return c.t }

// TestReplayRejectsContradictions feeds the scheduler's replay records
// that contradict the state script() leaves: each must be refused, and
// leave the scheduler's state as it was.
func TestReplayRejectsContradictions(t *testing.T) {
	base := func(n int) *replayer {
		p, err := newReplayer(NewState(), 1, core.FCFSShare)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range script()[:n] {
			if err := p.apply(&r); err != nil {
				t.Fatalf("setup replay: %v", err)
			}
		}
		return p
	}
	cases := map[string]struct {
		n   int // records of script() to pre-apply
		rec Record
	}{
		"bag ID gap":          {0, Record{Kind: KindBagSubmitted, Time: 1, Bag: 5, Works: []float64{1}}},
		"unknown bag":         {1, Record{Kind: KindReplicaStarted, Time: 2, Bag: 9, Task: 0, Seq: 1}},
		"task out of range":   {1, Record{Kind: KindReplicaStarted, Time: 2, Bag: 0, Task: 7, Seq: 1}},
		"busy machine":        {4, Record{Kind: KindReplicaStarted, Time: 4, Bag: 0, Task: 1, Machine: 0, Seq: 2}},
		"machine off grid":    {1, Record{Kind: KindReplicaStarted, Time: 2, Bag: 0, Task: 0, Machine: 1, Seq: 1}},
		"start done task":     {5, Record{Kind: KindReplicaStarted, Time: 6, Bag: 0, Task: 0, Machine: 0, Seq: 2}},
		"complete pending":    {1, Record{Kind: KindTaskCompleted, Time: 2, Bag: 0, Task: 1, Seq: 1}},
		"complete done":       {5, Record{Kind: KindTaskCompleted, Time: 6, Bag: 0, Task: 0, Seq: 1}},
		"bag not done":        {1, Record{Kind: KindBagCompleted, Time: 2, Bag: 0}},
		"bag never submitted": {1, Record{Kind: KindBagCompleted, Time: 2, Bag: 3}},
		"down off grid":       {4, Record{Kind: KindMachineDown, Time: 4, Machine: -1}},
		"unknown kind":        {1, Record{Kind: kindMax + 1, Time: 2}},
	}
	for name, c := range cases {
		p := base(c.n)
		before := p.state()
		if err := p.apply(&c.rec); err == nil {
			t.Errorf("%s: replay accepted a contradictory record", name)
		}
		if after := p.state(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the refused record changed the state\nbefore: %+v\nafter:  %+v", name, *before.Sched, *after.Sched)
		}
	}
}

// TestCutBeforeBagConfirmation replays a log cut between a bag's last
// task completion and its BagCompleted record, as a crash between the two
// appends leaves it: the task completion alone completes the bag, and the
// scheduler leaves replay mode with the bag archived.
func TestCutBeforeBagConfirmation(t *testing.T) {
	p, err := newReplayer(NewState(), 1, core.FCFSShare)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{
		{Kind: KindWorkerRegistered, Time: 1, Machine: 0, Worker: "w0", Power: 1},
		{Kind: KindBagSubmitted, Time: 1, Bag: 0, Granularity: 10, Works: []float64{5}},
		{Kind: KindReplicaStarted, Time: 2, Bag: 0, Task: 0, Machine: 0, Seq: 1},
		{Kind: KindTaskCompleted, Time: 3, Bag: 0, Task: 0, Seq: 1},
	} {
		if err := p.apply(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.sched.EndReplay(); err != nil {
		t.Fatalf("EndReplay after the cut: %v", err)
	}
	st := p.state()
	if len(st.Sched.Bags) != 0 || st.Sched.Completed != 1 ||
		len(st.Completed) != 1 || st.Completed[0].DoneAt != 3 {
		t.Fatalf("after the cut: sched %+v, archive %+v", *st.Sched, st.Completed)
	}
}

func TestOpenFreshAppendReopen(t *testing.T) {
	opts := testOptions(t)
	opts.Epoch = time.Unix(1000, 0)
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Fresh || rec.LastLSN != 0 {
		t.Fatalf("fresh open: %+v", rec)
	}
	last := mustAppend(t, j, script())
	if last != uint64(len(script())) {
		t.Fatalf("last LSN = %d, want %d", last, len(script()))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(&Record{Kind: KindMachineUp, Time: 9}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}

	j2, rec2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec2.Fresh || rec2.Records != len(script()) || rec2.LastLSN != last ||
		rec2.TornBytes != 0 || !rec2.Epoch.Equal(opts.Epoch) {
		t.Fatalf("reopen: %+v", rec2)
	}
	checkScriptState(t, scriptState(t, rec2))

	// New appends continue the LSN sequence.
	lsn, err := j2.Append(&Record{Kind: KindMachineUp, Time: 9, Machine: 0})
	if err != nil || lsn != last+1 {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	opts := testOptions(t)
	j, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, script())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the final record.
	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(opts.Dir, segName(segs[len(segs)-1]))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.TornBytes == 0 {
		t.Fatal("torn tail not detected")
	}
	if rec.Records != len(script())-1 || rec.LastLSN != uint64(len(script())-1) {
		t.Fatalf("recovered %d records, last LSN %d", rec.Records, rec.LastLSN)
	}
	// The WorkerSeen record was lost; everything before it survived.
	if st := scriptState(t, rec); st.Sched.Failures != 1 || st.Workers[0].LastSeen != 2 {
		t.Fatalf("state after torn tail: failures=%d workers=%+v", st.Sched.Failures, st.Workers)
	}
}

func TestTrailingGarbageTruncated(t *testing.T) {
	opts := testOptions(t)
	j, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, script())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(opts.Dir)
	path := filepath.Join(opts.Dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("garbage after the last frame")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.TornBytes == 0 || rec.Records != len(script()) {
		t.Fatalf("rec = %+v", rec)
	}
	checkScriptState(t, scriptState(t, rec))
}

func TestMidLogCorruptionRefused(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 64  // rotate after every couple of records
	opts.Fsync = FsyncBatch // WaitDurable forces one flush per record
	j, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range script() {
		lsn, err := j.Append(&r)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(opts.Dir)
	if len(segs) < 3 {
		t.Fatalf("wanted multiple segments, got %v", segs)
	}

	// Flip a payload byte in the first segment: corruption before the log
	// tail must refuse recovery rather than silently drop records.
	path := filepath.Join(opts.Dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(opts); err == nil {
		t.Fatal("Open accepted mid-log corruption")
	}
}

func TestSnapshotRecoveryAndPruning(t *testing.T) {
	opts := testOptions(t)
	opts.SegmentBytes = 64
	opts.Fsync = FsyncBatch // WaitDurable forces one flush per record
	j, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := script()
	cut := 5 // snapshot covers recs[:cut]
	st := NewState()
	var snapLSN uint64
	for i := range recs {
		lsn, err := j.Append(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := j.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		if err := (*linearState)(st).Apply(&recs[i]); err != nil {
			t.Fatal(err)
		}
		if i == cut-1 {
			st.Time = recs[i].Time
			snapLSN = lsn
			if err := j.WriteSnapshot(lsn, st); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLSN != snapLSN {
		t.Fatalf("recovered from snapshot %d, want %d", rec.SnapshotLSN, snapLSN)
	}
	if rec.Records != len(recs)-cut {
		t.Fatalf("replayed %d records, want %d", rec.Records, len(recs)-cut)
	}
	checkScriptState(t, scriptState(t, rec))

	// A snapshot covering the whole log prunes every closed segment; only
	// the active one survives.
	extra := Record{Kind: KindMachineUp, Time: 9, Machine: 0}
	lsn, err := j2.Append(&extra)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := (*linearState)(st).Apply(&extra); err != nil {
		t.Fatal(err)
	}
	st.Time = 9
	if err := j2.WriteSnapshot(lsn, st); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(opts.Dir)
	if len(segs) != 1 {
		t.Fatalf("segments after full-coverage snapshot: %v", segs)
	}
	snaps, _ := listSnapshots(opts.Dir)
	if len(snaps) != 2 { // latest two are kept
		t.Fatalf("snapshots kept: %v", snaps)
	}
	m := j2.Metrics()
	if m.Snapshots != 1 || m.LastSnapshotLSN != lsn {
		t.Fatalf("metrics = %+v", m)
	}

	// And recovery from the final snapshot alone reproduces the state.
	_, rec2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.SnapshotLSN != lsn || rec2.Records != 0 {
		t.Fatalf("final reopen: %+v", rec2)
	}
	if rec2.State.Time != 9 || len(rec2.State.Sched.Bags) != 1 ||
		rec2.State.Sched.TasksCompleted != 1 {
		t.Fatalf("state from final snapshot: time=%v sched=%+v",
			rec2.State.Time, rec2.State.Sched)
	}
}

// TestLeftoverTmpIgnoredAndOverwritten plants the torn scratch files that
// a crash inside WriteFileAtomic leaves behind — for META, the manifest
// and a snapshot. Open, append, snapshot and recovery must ignore them,
// and the next write of each file must reuse and consume its scratch file.
func TestLeftoverTmpIgnoredAndOverwritten(t *testing.T) {
	dir := t.TempDir()
	scratch := []string{"META.tmp", ManifestName + ".tmp", "snap.tmp"}
	plant := func() {
		t.Helper()
		for _, name := range scratch {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	plant()
	j, rec, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Fresh {
		t.Fatalf("directory holding only scratch files recovered as non-fresh: %+v", rec)
	}
	if err := WriteManifest(dir, Manifest{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	recs := script()
	last := mustAppend(t, j, recs)
	st := NewState()
	for i := range recs {
		if err := (*linearState)(st).Apply(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	st.Time = recs[len(recs)-1].Time
	if err := j.WriteSnapshot(last, st); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range scratch {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the write it stands for: %v", name, err)
		}
	}

	plant()
	j2, rec2, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec2.SnapshotLSN != last || rec2.Records != 0 {
		t.Fatalf("recovery with scratch files present: %+v", rec2)
	}
	checkScriptState(t, scriptState(t, rec2))
	if m, ok, err := ReadManifest(dir); err != nil || !ok || m.Shards != 1 {
		t.Fatalf("manifest with scratch present: %+v ok=%v err=%v", m, ok, err)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	opts := testOptions(t)
	j, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := script()
	last := mustAppend(t, j, recs)
	st := NewState()
	for i := range recs {
		if err := (*linearState)(st).Apply(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	st.Time = 8
	if err := j.WriteSnapshot(last, st); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(opts.Dir, snapName(last))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.SnapshotsSkipped != 1 || rec.SnapshotLSN != 0 {
		t.Fatalf("rec = %+v", rec)
	}
	// Full log replay still reconstructs everything: the whole log sits in
	// the active segment, which pruning never deletes.
	checkScriptState(t, scriptState(t, rec))
}

// TestSnapshotDue: no snapshot is due without appends since the last one
// (or since Open); after appends, one is due once the Young's-formula
// interval has passed.
func TestSnapshotDue(t *testing.T) {
	opts := testOptions(t)
	opts.SnapshotMTBF = 1000 * time.Hour // an interval of minutes: real time never makes one due here
	j, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs := script()
	var last uint64
	for round := 0; round < 2; round++ {
		if j.SnapshotDue() {
			t.Fatalf("round %d: due with no appends since the last snapshot", round)
		}
		last = mustAppend(t, j, recs[round:round+1])
		if j.SnapshotDue() {
			t.Fatalf("round %d: due before the interval passed", round)
		}
		passInterval(j)
		if !j.SnapshotDue() {
			t.Fatalf("round %d: not due after appends once the interval passed", round)
		}
		if err := j.WriteSnapshot(last, NewState()); err != nil {
			t.Fatal(err)
		}
	}
}

// passInterval moves the last snapshot back by the longest interval
// Young's formula can pick.
func passInterval(j *Journal) {
	j.mu.Lock()
	j.lastSnapAt = j.lastSnapAt.Add(-maxSnapInterval)
	j.mu.Unlock()
}

// TestWriteSnapshotErrorInMetrics: a failed snapshot is kept for
// Metrics.Err and stays due, so the next poll retries it.
func TestWriteSnapshotErrorInMetrics(t *testing.T) {
	opts := testOptions(t)
	j, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	last := mustAppend(t, j, script()[:2])
	passInterval(j)
	// A directory where the temp file goes makes the write fail.
	if err := os.Mkdir(filepath.Join(opts.Dir, "snap.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(last, NewState()); err == nil {
		t.Fatal("snapshot over a directory succeeded")
	}
	if m := j.Metrics(); m.Err == "" || m.Snapshots != 0 {
		t.Fatalf("metrics after a failed snapshot: %+v", m)
	}
	if !j.SnapshotDue() {
		t.Fatal("a failed snapshot is no longer due")
	}
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncBatch, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := testOptions(t)
			opts.Fsync = mode
			j, _, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, j, script())
			m := j.Metrics()
			if mode == FsyncOff && m.Fsyncs != 0 {
				t.Fatalf("fsync=off performed %d fsyncs", m.Fsyncs)
			}
			if mode != FsyncOff && m.Fsyncs == 0 {
				t.Fatalf("fsync=%v performed no fsyncs", mode)
			}
			if m.Appends != uint64(len(script())) {
				t.Fatalf("appends = %d", m.Appends)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Records != len(script()) {
				t.Fatalf("recovered %d records", rec.Records)
			}
			checkScriptState(t, scriptState(t, rec))
		})
	}
}

// TestConcurrentDurableAppendsSurviveCrashImage pins the ack contract
// under concurrent appenders: every record whose WaitDurable returned is
// in a copy of the directory taken before Close, across many segment
// rotations.
func TestConcurrentDurableAppendsSurviveCrashImage(t *testing.T) {
	const (
		workers = 8
		perWork = 250
	)
	opts := testOptions(t)
	opts.Fsync = FsyncBatch
	opts.SegmentBytes = 512
	j, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Register every machine first so each seen record replays.
	regs := make([]Record, workers)
	for m := range regs {
		regs[m] = Record{Kind: KindWorkerRegistered, Time: 1, Machine: m,
			Worker: fmt.Sprintf("w%d", m), Power: 1}
	}
	maxAcked := mustAppend(t, j, regs)
	acked := len(regs)

	var wg sync.WaitGroup
	lasts := make([]uint64, workers)
	errs := make([]error, workers)
	for m := 0; m < workers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				r := Record{Kind: KindWorkerSeen, Time: float64(2 + i), Machine: m}
				lsn, err := j.Append(&r)
				if err == nil {
					err = j.WaitDurable(lsn)
				}
				if err != nil {
					errs[m] = err
					return
				}
				lasts[m] = lsn
			}
		}(m)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for _, lsn := range lasts {
		maxAcked = max(maxAcked, lsn)
	}
	acked += workers * perWork

	// The crash image: the directory as a crash would leave it, copied
	// file by file while the journal is still open.
	image := t.TempDir()
	ents, err := os.ReadDir(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(opts.Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(e.Name()) == ".wal" {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("wanted segment rotation, got %d segments", segs)
	}
	m := j.Metrics()
	if m.Fsyncs == 0 || m.Fsyncs > m.Appends {
		t.Fatalf("fsyncs = %d for %d appends", m.Fsyncs, m.Appends)
	}

	img := opts
	img.Dir = image
	j2, rec, err := Open(img)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.LastLSN < maxAcked {
		t.Fatalf("recovered up to LSN %d, acknowledged up to %d", rec.LastLSN, maxAcked)
	}
	if rec.Records < acked {
		t.Fatalf("replayed %d records, acknowledged %d", rec.Records, acked)
	}
}

func TestParseFsyncMode(t *testing.T) {
	for _, s := range []string{"batch", "off"} {
		m, err := ParseFsyncMode(s)
		if err != nil || m.String() != s {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", s, m, err)
		}
	}
	// "always" names the same behaviour as batch: every flush is fsynced
	// as soon as a record is pending.
	if m, err := ParseFsyncMode("always"); err != nil || m != FsyncBatch || m.String() != "batch" {
		t.Fatalf("ParseFsyncMode(\"always\") = %v, %v", m, err)
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Fatal("ParseFsyncMode accepted garbage")
	}
}
