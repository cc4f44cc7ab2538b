package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/grid"
)

// tracer keeps the spans of a traced run in memory and writes them out at
// exit. Spans come from the bench's own decorators, never from inside the
// measured program: one per replication for the simulator, one per batch or
// request per layer for the dispatch plane, with the per-operation times of
// a batch summed into its span. A layer's self time is its spans' total
// minus the total of the spans they caused (its children).
type tracer struct {
	epoch time.Time
	// run numbers the workload being traced, so that IDs stay unique when
	// one process traces several.
	run   uint64
	mu    sync.Mutex
	spans []span
}

// span is one interval at a layer boundary. Parent is the ID of the span
// that caused it, 0 for a root; the spans of one request share the low
// bits of their IDs (see tracer.id).
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span records one finished interval. One short critical section per span
// is nothing beside the round-trip or replication the span describes.
func (t *tracer) span(name string, id, parent uint64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// id packs a layer, the workload's run number, a connection (for the
// simulator: a segment) and a sequence number into a span ID. Client and
// server see the same (connection, sequence) for one request — connections
// are dialled in order and every client is a closed loop — so the
// server-side decorator can name its parent without the protocol carrying
// anything.
func (t *tracer) id(layer, conn int, seq uint64) uint64 {
	return uint64(layer)<<56 | t.run<<48 | uint64(conn)<<40 | seq&(1<<40-1)
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}

// repMem reads the allocator around one replication.
type repMem struct{ bytes, objects uint64 }

func readRepMem() repMem {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return repMem{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// simTally is the simulator's decorator: a core.Observer that counts what
// the scheduler tells it, next to the sums of what each replication's
// core.Result reports. The two must agree — that is the traced run's own
// correctness check — and the counts must be identical on both sides of
// any change that only makes the simulator faster.
type simTally struct {
	core.NopObserver
	// From Observer callbacks.
	obsStarted, obsFailed, obsCompleted, obsKilled int
	machineFailures                                int
	// From Results.
	reps                               int
	events                             uint64
	completed, started, killed, failed int
	saves, retrieves                   int
	run                                time.Duration
	allocBytes, allocObjects           uint64
}

func (t *simTally) ReplicaStarted(float64, *core.Replica, bool)      { t.obsStarted++ }
func (t *simTally) ReplicaFailed(float64, *core.Task, *grid.Machine) { t.obsFailed++ }
func (t *simTally) MachineFailed(float64, *grid.Machine)             { t.machineFailures++ }
func (t *simTally) TaskCompleted(_ float64, _ *core.Task, killed int) {
	t.obsCompleted++
	t.obsKilled += killed
}

func (t *simTally) add(r core.Result, took time.Duration, before repMem) {
	after := readRepMem()
	t.reps++
	t.events += r.EventsFired
	t.completed += r.TasksCompleted
	t.started += r.ReplicasStarted
	t.killed += r.ReplicasKilled
	t.failed += r.ReplicaFailures
	t.saves += r.CheckpointSaves
	t.retrieves += r.CheckpointRetrieves
	t.run += took
	t.allocBytes += after.bytes - before.bytes
	t.allocObjects += after.objects - before.objects
}

// agrees checks the Observer's counts against the Results'.
func (t *simTally) agrees() check {
	ok := t.obsStarted == t.started && t.obsCompleted == t.completed &&
		t.obsKilled == t.killed && t.obsFailed == t.failed && t.reps > 0
	return check{"observer-agrees-with-results", ok,
		fmt.Sprintf("observer started/completed/killed/failed %d/%d/%d/%d, results %d/%d/%d/%d",
			t.obsStarted, t.obsCompleted, t.obsKilled, t.obsFailed, t.started, t.completed, t.killed, t.failed)}
}

// metrics reports the exact counts and the whole-run costs.
func (t *simTally) metrics() map[string]float64 {
	reps, events := float64(t.reps), float64(t.events)
	return map[string]float64{
		"core.events":           events,
		"core.tasks_completed":  float64(t.completed),
		"core.replicas_started": float64(t.started),
		"core.replicas_killed":  float64(t.killed),
		"core.replica_failures": float64(t.failed),
		"core.replica_overhead": float64(t.started) / float64(max(t.completed, 1)),
		"checkpoint.saves":      float64(t.saves),
		"checkpoint.retrieves":  float64(t.retrieves),
		"core.run_ns_per_event": float64(t.run.Nanoseconds()) / events,
		"core.allocs_per_rep":   float64(t.allocObjects) / reps,
		"core.alloc_kb_per_rep": float64(t.allocBytes) / 1024 / reps,
		"grid.machine_failures": float64(t.machineFailures),
	}
}
