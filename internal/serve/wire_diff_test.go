package serve

// The differential transport test: one seeded worker trace replayed
// through the JSON/HTTP front end and through the binary wire protocol,
// each against a fresh journaled server. Both transports run the same
// dispatch operations (ops.go), so the final scheduler summaries and the
// per-shard journal record streams must match exactly — any divergence
// means one transport mutated state the other didn't — and every in-band
// failure must reach the client with the same text.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
	"botgrid/internal/wire"
)

// traceOp is one step of the generated trace. Per round the trace
// submits bags, fetches for every worker (batched on the wire
// transport), heartbeats some, reports some — including deliberately
// stale re-reports — then advances the clock.
type traceReport struct {
	worker  string
	replica uint64
	failed  bool
}

// transportDriver abstracts the two transports for the replay loop.
type transportDriver interface {
	submit(gran float64, works []float64) (int, error)
	// fetchAll polls every worker in order; the wire driver packs them
	// into one batch round-trip.
	fetchAll(workers []string) ([]FetchResponse, error)
	// reportAll applies reports in order; batched on the wire.
	reportAll(reports []traceReport) ([]string, error)
	heartbeat(worker string, replica uint64) (string, error)
}

type httpDriver struct{ c *Client }

func (d httpDriver) submit(gran float64, works []float64) (int, error) {
	return d.c.Submit(gran, works)
}

func (d httpDriver) fetchAll(workers []string) ([]FetchResponse, error) {
	out := make([]FetchResponse, len(workers))
	for i, w := range workers {
		resp, err := d.c.Fetch(w, 0)
		if err != nil {
			return nil, err
		}
		out[i] = resp
	}
	return out, nil
}

func (d httpDriver) reportAll(reports []traceReport) ([]string, error) {
	out := make([]string, len(reports))
	for i, r := range reports {
		status := StatusDone
		if r.failed {
			status = StatusFailed
		}
		ack, err := d.c.Report(r.worker, r.replica, status)
		if err != nil {
			return nil, err
		}
		out[i] = ack
	}
	return out, nil
}

func (d httpDriver) heartbeat(worker string, replica uint64) (string, error) {
	return d.c.Heartbeat(worker, replica)
}

type wireDriver struct{ c *wire.Client }

func (d wireDriver) submit(gran float64, works []float64) (int, error) {
	res, err := d.c.Submit(gran, works)
	return res.Bag, err
}

func (d wireDriver) fetchAll(workers []string) ([]FetchResponse, error) {
	b := d.c.NewBatch()
	for _, w := range workers {
		b.Fetch(w, 0)
	}
	res, err := b.Do()
	if err != nil {
		return nil, err
	}
	out := make([]FetchResponse, len(res))
	for i, r := range res {
		if r.Err != "" {
			return nil, fmt.Errorf("batched fetch: %s", r.Err)
		}
		if r.Fetch.Assigned {
			out[i] = FetchResponse{Assigned: true, Assignment: &Assignment{
				Replica: r.Fetch.Replica,
				Bag:     r.Fetch.Bag,
				Task:    r.Fetch.Task,
				Work:    r.Fetch.Work,
			}}
		} else {
			out[i] = FetchResponse{RetryMs: r.Fetch.RetryMs}
		}
	}
	return out, nil
}

func (d wireDriver) reportAll(reports []traceReport) ([]string, error) {
	b := d.c.NewBatch()
	for _, r := range reports {
		b.Report(r.worker, r.replica, r.failed)
	}
	res, err := b.Do()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = r.Ack.String()
	}
	return out, nil
}

func (d wireDriver) heartbeat(worker string, replica uint64) (string, error) {
	ack, err := d.c.Heartbeat(worker, replica)
	return ack.String(), err
}

// scanRecords drains every shard's journal to its durable tail and
// returns the full per-shard record streams (before Close, whose final
// snapshot prunes the WAL). It reads a copy of each journal, which
// journal.Open may change, and the run writes no snapshot, so the copy's
// tail is the whole stream.
func scanRecords(t *testing.T, s *Server, dir string) map[int][]journal.Record {
	t.Helper()
	streams := make(map[int][]journal.Record)
	for _, sh := range s.shards {
		sh.mu.Lock()
		lsn := sh.lastLSN
		sh.mu.Unlock()
		if err := sh.jnl.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		sdir := dir
		if len(s.shards) > 1 {
			sdir = filepath.Join(dir, journal.ShardDirName(sh.idx))
		}
		cp := t.TempDir()
		ents, err := os.ReadDir(sdir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(sdir, e.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(cp, e.Name()), b, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		j, rec, err := journal.Open(journal.Options{Dir: cp, Fsync: journal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		var recs []journal.Record
		err = rec.Replay(func(_ uint64, r *journal.Record) error {
			recs = append(recs, *r)
			return nil
		})
		if err := errors.Join(err, j.Close()); err != nil {
			t.Fatal(err)
		}
		if rec.SnapshotLSN != 0 {
			t.Fatalf("shard %d wrote a snapshot mid-run", sh.idx)
		}
		streams[sh.idx] = recs
	}
	return streams
}

// normalizeStats strips the fields that legitimately differ between
// transports (latency timings, journal fsync counters, recovery info);
// everything else — counters, bag statuses, worker counts — must match.
func normalizeStats(st StatsResponse) StatsResponse {
	st.DecisionLatency = LatencySummary{}
	st.Journal = nil
	st.Recovery = nil
	for i := range st.ShardStats {
		st.ShardStats[i].Journal = nil
		st.ShardStats[i].Recovery = nil
	}
	return st
}

// errorPaths drives every in-band failure once and returns what the client
// saw for each: the error text, or the ack when the call succeeded. It
// runs after the trace, on a server with 8 of its 16 worker slots taken.
func errorPaths(t *testing.T, drv transportDriver) []string {
	t.Helper()
	var out []string
	saw := func(ack string, err error) {
		if err != nil {
			ack = err.Error()
		}
		out = append(out, ack)
	}
	_, err := drv.submit(100, nil)
	saw("", err)
	_, err = drv.submit(100, []float64{5, 0})
	saw("", err)
	// Fill the worker table, then ask for one slot more.
	extra := make([]string, 8)
	for i := range extra {
		extra[i] = fmt.Sprintf("x%02d", i)
	}
	if _, err := drv.fetchAll(extra); err != nil {
		t.Fatalf("filling the worker table: %v", err)
	}
	_, err = drv.fetchAll([]string{"overflow"})
	saw("", err)
	acks, err := drv.reportAll([]traceReport{{worker: "ghost", replica: 1}})
	saw(strings.Join(acks, ","), err)
	saw(drv.heartbeat("ghost", 1))
	return out
}

// runTransportTrace replays the seeded trace, then the error paths, over
// the given transport against a fresh two-shard journaled server and
// returns the normalized final stats, the journal record streams and the
// error-path outcomes.
func runTransportTrace(t *testing.T, useWire bool) (StatsResponse, map[int][]journal.Record, []string) {
	t.Helper()
	dir := t.TempDir()
	clk := &fakeClock{}
	s, err := NewServer(Config{
		Policy:       core.FCFSShare,
		MaxWorkers:   16,
		Shards:       2,
		Clock:        clk,
		DataDir:      dir,
		SnapshotMTBF: 1000 * time.Hour, // no mid-run snapshots
		Lease:        -1,               // no lease expiry
		Rebalance:    -1,               // no rebalancer
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var drv transportDriver
	if useWire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws := wire.NewServer(s.WireHandler())
		go ws.Serve(ln)
		defer ws.Close()
		wc, err := wire.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		drv = wireDriver{wc}
	} else {
		ts := httptest.NewServer(s)
		defer ts.Close()
		drv = httpDriver{NewClient(ts.URL)}
	}

	// The seeded trace. Both transports replay the identical op sequence:
	// same PRNG, same order, clock advanced only between rounds — so the
	// scheduler sees the same requests at the same times.
	rng := rand.New(rand.NewSource(12345))
	workers := make([]string, 8)
	for i := range workers {
		workers[i] = fmt.Sprintf("w%02d", i)
	}
	running := make(map[string]uint64) // worker -> outstanding replica
	var lastDone traceReport
	for round := 0; round < 40; round++ {
		if round%4 == 0 {
			works := make([]float64, 3+rng.Intn(5))
			for i := range works {
				works[i] = 1 + float64(rng.Intn(100))
			}
			if _, err := drv.submit(100, works); err != nil {
				t.Fatalf("round %d submit: %v", round, err)
			}
		}
		resps, err := drv.fetchAll(workers)
		if err != nil {
			t.Fatalf("round %d fetch: %v", round, err)
		}
		for i, resp := range resps {
			if resp.Assigned {
				running[workers[i]] = resp.Assignment.Replica
			}
		}
		// Some workers heartbeat mid-computation.
		for _, w := range workers {
			if rep, ok := running[w]; ok && rng.Intn(3) == 0 {
				if _, err := drv.heartbeat(w, rep); err != nil {
					t.Fatalf("round %d heartbeat: %v", round, err)
				}
			}
		}
		// Report roughly half the outstanding replicas; one in eight
		// fails. Iterate workers in fixed order for determinism.
		var reports []traceReport
		for _, w := range workers {
			rep, ok := running[w]
			if !ok || rng.Intn(2) == 0 {
				continue
			}
			r := traceReport{worker: w, replica: rep, failed: rng.Intn(8) == 0}
			reports = append(reports, r)
			delete(running, w)
			if !r.failed {
				lastDone = r
			}
		}
		// Replay a finished replica's report: must ack stale on both
		// transports without touching scheduler state.
		if lastDone.worker != "" && rng.Intn(4) == 0 {
			reports = append(reports, lastDone)
		}
		if len(reports) > 0 {
			if _, err := drv.reportAll(reports); err != nil {
				t.Fatalf("round %d report: %v", round, err)
			}
		}
		clk.advance(1.5)
	}
	failures := errorPaths(t, drv)

	// Final stats come over HTTP on both runs: the compatibility front
	// end reads whatever state the driving transport built.
	ts := httptest.NewServer(s)
	defer ts.Close()
	st, err := NewClient(ts.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	return normalizeStats(st), scanRecords(t, s, dir), failures
}

// TestWireHTTPDifferential is the transport equivalence proof: identical
// traffic through HTTP and through the binary wire protocol must produce
// bit-identical scheduler summaries and journal record streams, and the
// same answer to every request the server refuses.
func TestWireHTTPDifferential(t *testing.T) {
	httpStats, httpRecs, httpFails := runTransportTrace(t, false)
	wireStats, wireRecs, wireFails := runTransportTrace(t, true)

	// The refusals: one text per failure whichever transport carried it
	// (HTTP adds its status code; an unknown worker is 404 there and the
	// "unknown" ack on the wire).
	wantFails := []struct{ what, http, wire string }{
		{"empty bag", "serve: /v1/bags: status 400: empty bag", "wire: submit: empty bag"},
		{"non-positive work", "serve: /v1/bags: status 400: task work must be positive", "wire: submit: task work must be positive"},
		{"capacity exhausted", "serve: /v1/workers/overflow/fetch: status 503: worker capacity 16 exhausted", "batched fetch: worker capacity 16 exhausted"},
		{"report from an unknown worker", "serve: /v1/workers/ghost/report: status 404: unknown worker", "unknown"},
		{"heartbeat from an unknown worker", "serve: /v1/workers/ghost/heartbeat: status 404: unknown worker", "unknown"},
	}
	if len(httpFails) != len(wantFails) || len(wireFails) != len(wantFails) {
		t.Fatalf("error paths: http saw %q, wire saw %q", httpFails, wireFails)
	}
	for i, w := range wantFails {
		if httpFails[i] != w.http {
			t.Errorf("%s over HTTP: %q, want %q", w.what, httpFails[i], w.http)
		}
		if wireFails[i] != w.wire {
			t.Errorf("%s over wire: %q, want %q", w.what, wireFails[i], w.wire)
		}
	}

	// Guard against a vacuous pass: the trace must have exercised real
	// scheduling and journaling on every shard.
	if httpStats.BagsSubmitted == 0 || httpStats.TasksCompleted == 0 || httpStats.StaleReports == 0 {
		t.Fatalf("trace too thin: %+v", httpStats)
	}
	for shard, recs := range httpRecs {
		if len(recs) == 0 {
			t.Fatalf("shard %d journaled no records", shard)
		}
	}

	if !reflect.DeepEqual(httpStats, wireStats) {
		t.Errorf("final stats diverge:\nhttp: %+v\nwire: %+v", httpStats, wireStats)
	}
	if len(httpRecs) != len(wireRecs) {
		t.Fatalf("shard count: http %d, wire %d", len(httpRecs), len(wireRecs))
	}
	for shard, hr := range httpRecs {
		wr := wireRecs[shard]
		if len(hr) != len(wr) {
			t.Errorf("shard %d: http journaled %d records, wire %d", shard, len(hr), len(wr))
			continue
		}
		for i := range hr {
			if !reflect.DeepEqual(hr[i], wr[i]) {
				t.Errorf("shard %d record %d diverges:\nhttp: %+v\nwire: %+v", shard, i, hr[i], wr[i])
				break
			}
		}
	}
}

// TestWireSessionInternBounded pins the session's memory bound: a peer
// cycling through worker IDs the server never registers — reports and
// heartbeats from strangers, fetches refused for capacity — leaves
// nothing behind, in the session's intern map or the router's pins.
func TestWireSessionInternBounded(t *testing.T) {
	const registered = 4
	s, err := NewServer(Config{MaxWorkers: registered, Lease: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.WireHandler().NewSession().(*wireSession)
	for i := 0; i < registered; i++ {
		if _, err := sess.Fetch([]byte(fmt.Sprintf("w%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		id := []byte(fmt.Sprintf("stranger-%d", i))
		if ack, _ := sess.Report(id, 1, false); ack != wire.AckUnknown {
			t.Fatalf("report from %s: %v", id, ack)
		}
		if ack := sess.Heartbeat(id, 1); ack != wire.AckUnknown {
			t.Fatalf("heartbeat from %s: %v", id, ack)
		}
		if _, err := sess.Fetch(id, 0); err == nil {
			t.Fatalf("fetch for %s succeeded past MaxWorkers", id)
		}
	}
	pins := 0
	s.pins.Range(func(any, any) bool { pins++; return true })
	if len(sess.intern) != registered || pins != registered {
		t.Fatalf("%d interned IDs and %d pins for %d registered workers", len(sess.intern), pins, registered)
	}
}
