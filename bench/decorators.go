package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"botgrid/internal/journal"
	"botgrid/internal/serve"
	ring "botgrid/internal/shard"
	"botgrid/internal/stats"
	"botgrid/internal/wire"
)

// The dispatch plane's decorators. Each wraps a public seam that already
// exists — net.Listener/net.Conn, wire.Handler/wire.Session, serve.Log,
// http.Handler — times or counts what passes through, and forwards. Nothing
// inside the measured program changes.

// Span layers, the high byte of a span ID.
const (
	layerSim     = 0 // sim.segment and the core.run spans under it
	layerRTT     = 1 // the client's round-trip
	layerServer  = 2 // serve.session on the wire, http.handler on HTTP
	layerJournal = 3 // the group-commit wait inside a session's Flush
)

// planeTrace collects what the decorators of one plane see. Server-side
// goroutines add with atomics — they may outlive close by a moment, since
// neither transport waits for its connection goroutines.
type planeTrace struct {
	tr *tracer
	// on is set once the warm-up is over: registration and connection
	// set-up are not the steady state the per-layer means describe, so
	// until then the decorators only forward.
	on atomic.Bool

	// net.Conn, from the bench-owned listener.
	reads, writes, bytes atomic.Int64
	httpConns            atomic.Int64
	// httpSeq[i] is client i's request in flight, for span parenting.
	httpSeq []atomic.Uint64

	// wire.Session, per operation kind: total ns and count.
	conns                                    atomic.Int64
	fetchNs, reportNs, submitNs, flushNs     atomic.Int64
	fetchOps, reportOps, submitOps, flushOps atomic.Int64
	// http.Handler.
	handlerNs, handled atomic.Int64
	// serve.Log.
	appendNs, appends, waitNs, waits atomic.Int64
	waitMu                           sync.Mutex
	waitUs                           []float64

	// Client side, folded in by the plane after each segment.
	rttMs                              []float64
	requests, acked, fetches, assigned int64
	rtt, build                         time.Duration
	wall                               time.Duration
	stats                              serve.StatsResponse
	journalBytes                       int64
	openScan, restore                  time.Duration
	replayed                           int
}

func newPlaneTrace(tr *tracer, clients int) *planeTrace {
	return &planeTrace{tr: tr, httpSeq: make([]atomic.Uint64, clients)}
}

// client folds one driver's segment in.
func (t *planeTrace) client(d driverSeg) {
	t.rttMs = append(t.rttMs, d.callsMs...)
	t.requests += d.requests
	t.rtt += d.rtt
	t.acked += d.acked
	t.fetches += d.fetches
	t.assigned += d.assigned
	t.build += d.build
}

// countingListener hands out connections that count their reads, writes and
// bytes: the server's side of every socket of the plane.
type countingListener struct {
	net.Listener
	t *planeTrace
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: l.t}, nil
}

type countingConn struct {
	net.Conn
	t *planeTrace
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on.Load() {
		c.t.reads.Add(1)
		c.t.bytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.on.Load() {
		c.t.writes.Add(1)
		c.t.bytes.Add(int64(n))
	}
	return n, err
}

// tracedHandler wraps the dispatch plane's wire.Handler so that every
// connection gets a timing session.
type tracedHandler struct {
	inner wire.Handler
	t     *planeTrace
}

func (h *tracedHandler) NewSession() wire.Session {
	return &tracedSession{inner: h.inner.NewSession(), t: h.t, conn: int(h.t.conns.Add(1) - 1)}
}

// tracedSession times each operation of one connection and sums them into
// one serve.session span per burst: the wire server executes every
// buffered frame and then calls Flush exactly once, so Flush closes the
// burst. It is used from the connection's goroutine only.
type tracedSession struct {
	inner wire.Session
	t     *planeTrace
	conn  int
	seq   uint64 // bursts flushed: the client's batch number on this connection

	first                       time.Time // start of the burst's first operation
	fetch, report, submit       time.Duration
	fetches, reports, submitted int64
}

func (s *tracedSession) begin() time.Time {
	now := time.Now()
	if s.first.IsZero() {
		s.first = now
	}
	return now
}

func (s *tracedSession) Submit(granularity float64, works []float64) (wire.SubmitResult, wire.Pending, error) {
	start := s.begin()
	res, p, err := s.inner.Submit(granularity, works)
	s.submit += time.Since(start)
	s.submitted++
	return res, p, err
}

func (s *tracedSession) Fetch(worker []byte, power float64) (wire.FetchResult, error) {
	start := s.begin()
	res, err := s.inner.Fetch(worker, power)
	s.fetch += time.Since(start)
	s.fetches++
	return res, err
}

func (s *tracedSession) Report(worker []byte, replica uint64, failed bool) (wire.Ack, wire.Pending) {
	start := s.begin()
	ack, p := s.inner.Report(worker, replica, failed)
	s.report += time.Since(start)
	s.reports++
	return ack, p
}

func (s *tracedSession) Heartbeat(worker []byte, replica uint64) wire.Ack {
	return s.inner.Heartbeat(worker, replica)
}

func (s *tracedSession) Flush(pending []wire.Pending) error {
	start := s.begin()
	err := s.inner.Flush(pending)
	flush := time.Since(start)

	t := s.t
	defer s.next()
	if !t.on.Load() {
		return err
	}
	t.fetchNs.Add(int64(s.fetch))
	t.reportNs.Add(int64(s.report))
	t.submitNs.Add(int64(s.submit))
	t.flushNs.Add(int64(flush))
	t.fetchOps.Add(s.fetches)
	t.reportOps.Add(s.reports)
	t.submitOps.Add(s.submitted)
	t.flushOps.Add(1)
	// The span is the burst's operation times laid end to end from its
	// first operation: the gaps between operations are the wire server
	// decoding the next one, which is the transport's time, not the
	// session's. The group-commit wait is its last stretch.
	ops := s.fetch + s.report + s.submit
	id := t.tr.id(layerServer, s.conn, s.seq)
	t.tr.span("serve.session", id, t.tr.id(layerRTT, s.conn, s.seq), s.first, s.first.Add(ops+flush))
	if len(pending) > 0 {
		t.tr.span("journal.wait", t.tr.id(layerJournal, s.conn, s.seq), id, s.first.Add(ops), s.first.Add(ops+flush))
	}
	return err
}

// next starts the following burst. Recorded or not, a burst is counted, so
// that seq keeps naming the client's batch.
func (s *tracedSession) next() {
	*s = tracedSession{inner: s.inner, t: s.t, conn: s.conn, seq: s.seq + 1}
}

func (s *tracedSession) Close() { s.inner.Close() }

// tracedLog times the journal from where the shard calls it. Append runs
// under the shard's mutex, so its decorator is two clock reads and two
// atomic adds and nothing else.
type tracedLog struct {
	serve.Log
	t *planeTrace
}

func (l *tracedLog) Append(r *journal.Record) (uint64, error) {
	if !l.t.on.Load() {
		return l.Log.Append(r)
	}
	start := time.Now()
	lsn, err := l.Log.Append(r)
	l.t.appendNs.Add(int64(time.Since(start)))
	l.t.appends.Add(1)
	return lsn, err
}

func (l *tracedLog) WaitDurable(lsn uint64) error {
	if !l.t.on.Load() {
		return l.Log.WaitDurable(lsn)
	}
	start := time.Now()
	err := l.Log.WaitDurable(lsn)
	took := time.Since(start)
	l.t.waitNs.Add(int64(took))
	l.t.waits.Add(1)
	l.t.waitMu.Lock()
	l.t.waitUs = append(l.t.waitUs, float64(took.Nanoseconds())/1e3)
	l.t.waitMu.Unlock()
	return err
}

// tracedHTTP is the middleware around the server's http.Handler: one
// http.handler span per request. A worker request names its client in its
// path, and each client has one request in flight, so the client's current
// sequence number identifies the parent round-trip.
type tracedHTTP struct {
	inner http.Handler
	t     *planeTrace
}

func (h *tracedHTTP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	took := time.Since(start)
	h.t.handlerNs.Add(int64(took))
	n := uint64(h.t.handled.Add(1))
	parent := uint64(0)
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/workers/w"); ok {
		client := 0
		for i := 0; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
			client = client*10 + int(rest[i]-'0')
		}
		if client < len(h.t.httpSeq) {
			parent = h.t.tr.id(layerRTT, client, h.t.httpSeq[client].Load())
		}
	}
	h.t.tr.span("http.handler", h.t.tr.id(layerServer, 0, n), parent, start, start.Add(took))
}

// layers turns what the decorators of a traced plane saw, plus the plane's
// stand-alone probes, into its per-layer metrics.
func (p *plane) layers(ctx context.Context, _ []segResult) (map[string]float64, error) {
	t := p.dec
	us := func(ns, n int64) float64 { return float64(ns) / 1e3 / float64(max(n, 1)) }
	dispatches, calls := max(t.acked, 1), max(t.requests, 1)
	meanRTT := us(t.rtt.Nanoseconds(), calls)
	m := map[string]float64{
		"client.batch_build_us":      float64(t.build.Microseconds()) / float64(calls),
		"client.call_p99_ms":         stats.Percentile(t.rttMs, 0.99),
		"serve.fetch_assigned_share": float64(t.assigned) / float64(max(t.fetches, 1)),
		"serve.stale_reports":        float64(t.stats.StaleReports),
		"serve.decision_p50_us":      t.stats.DecisionLatency.P50 * 1e6,
		"serve.decision_p99_us":      t.stats.DecisionLatency.P99 * 1e6,
	}
	// Time inside no span at all: clients waiting at a segment's end for
	// the slowest one, goroutine start-up.
	m["serve.unattributed_share"] = 1 - (t.rtt+t.build).Seconds()/(t.wall.Seconds()*float64(len(p.drivers)))

	if p.http {
		handler := us(t.handlerNs.Load(), t.handled.Load())
		m["http.rtt_us_p50"] = stats.Percentile(t.rttMs, 0.5) * 1e3
		m["http.handler_us"] = handler
		m["http.transport_us"] = meanRTT - handler
		m["http.bytes_per_dispatch"] = float64(t.bytes.Load()) / float64(dispatches)
		m["http.conns_opened"] = float64(t.httpConns.Load())
		m["serve.self_ns_per_dispatch"] = float64(t.handlerNs.Load()) / float64(dispatches)
	} else {
		session := t.fetchNs.Load() + t.reportNs.Load() + t.submitNs.Load() + t.flushNs.Load()
		bursts := t.flushOps.Load()
		m["wire.rtt_us_p50"] = stats.Percentile(t.rttMs, 0.5) * 1e3
		m["wire.session_us_per_batch"] = us(session, bursts)
		m["wire.transport_us_per_batch"] = meanRTT - us(session, bursts)
		m["wire.bytes_per_dispatch"] = float64(t.bytes.Load()) / float64(dispatches)
		m["wire.reads_per_batch"] = float64(t.reads.Load()) / float64(calls)
		m["wire.writes_per_batch"] = float64(t.writes.Load()) / float64(calls)
		m["serve.fetch_ns"] = float64(t.fetchNs.Load()) / float64(max(t.fetchOps.Load(), 1))
		m["serve.report_ns"] = float64(t.reportNs.Load()) / float64(max(t.reportOps.Load(), 1))
		m["serve.submit_us"] = us(t.submitNs.Load(), t.submitOps.Load())
		m["serve.flush_us"] = us(t.flushNs.Load(), bursts)
		// The session minus the journal time inside it: appends happen
		// within the operations, the wait is the Flush.
		m["serve.self_ns_per_dispatch"] = float64(session-t.appendNs.Load()-t.waitNs.Load()) / float64(dispatches)
		null, err := nullRTT(ctx, p.e)
		if err != nil {
			return nil, err
		}
		m["wire.null_rtt_us"] = null
	}
	if p.durable {
		m["journal.append_ns"] = float64(t.appendNs.Load()) / float64(max(t.appends.Load(), 1))
		m["journal.appends_per_dispatch"] = float64(t.appends.Load()) / float64(dispatches)
		m["journal.wait_durable_us_p50"] = stats.Percentile(t.waitUs, 0.5)
		m["journal.waits_per_batch"] = float64(t.waits.Load()) / float64(calls)
		if j := t.stats.Journal; j != nil {
			m["journal.records_per_fsync"] = j.RecordsPerFsync
			m["journal.fsyncs"] = float64(j.Fsyncs)
		}
		m["journal.bytes_per_dispatch"] = float64(t.journalBytes) / float64(max(p.acked, 1))
		m["journal.open_scan_s"] = t.openScan.Seconds()
		m["journal.replay_records_per_s"] = float64(t.replayed) / t.openScan.Seconds()
		m["serve.restore_s"] = t.restore.Seconds()
	}

	ids := identities(p.e, 0)
	r := ring.NewRing(p.cfg.Shards, nil)
	start := time.Now()
	const rounds = 200
	for i := 0; i < rounds; i++ {
		for _, id := range ids {
			lookupSink += r.Lookup(id)
		}
	}
	m["shard.lookup_ns"] = float64(time.Since(start).Nanoseconds()) / float64(rounds*len(ids))
	for pol, c := range liveCycles(p.e.sz.PrimeBags, p.e.sz.BagTasks, p.e.sz.smoke()) {
		m["core.live_cycle_ns."+pol] = c.perCycle
	}
	return m, nil
}

// lookupSink keeps the compiler from discarding the ring lookups.
var lookupSink int

// timeRecovery takes the recovery of a crash image apart: journal.Open
// alone on one copy — segment scan plus record replay into a journal.State
// — then the whole serve.NewServer on another, whose remainder is the
// scheduler restore.
func (t *planeTrace) timeRecovery(cfg serve.Config, image, scratch string) error {
	if err := copyDir(image, scratch); err != nil {
		return err
	}
	start := time.Now()
	j, rec, err := journal.Open(journal.Options{Dir: scratch, Fsync: journal.FsyncBatch})
	if err != nil {
		return err
	}
	t.openScan = time.Since(start)
	t.replayed = rec.Records
	if err := j.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(scratch); err != nil {
		return err
	}
	if err := copyDir(image, scratch); err != nil {
		return err
	}
	whole, err := recoverImage(cfg, scratch)
	if err != nil {
		return err
	}
	t.restore = whole.took - t.openScan
	return os.RemoveAll(scratch)
}

// nullRTT measures the transport with nothing behind it: the same batches,
// from the same clients, against a wire.Handler that answers from canned
// values. It returns the median batch round-trip in µs.
func nullRTT(ctx context.Context, e *env) (_ float64, err error) {
	p, err := startPlane(ctx, &plane{e: e, name: "null-rtt", handler: cannedHandler{}, perSeg: groups(e.sz.WireDispatch / 4)}, false)
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, p.close()) }()
	seg, err := p.segment(ctx, 0)
	return stats.Percentile(seg.callsMs, 0.5) * 1e3, err
}

// cannedHandler is the dispatch plane reduced to constants.
type cannedHandler struct{}

func (cannedHandler) NewSession() wire.Session { return &cannedSession{} }

type cannedSession struct{ replica uint64 }

func (s *cannedSession) Submit(_ float64, works []float64) (wire.SubmitResult, wire.Pending, error) {
	return wire.SubmitResult{Tasks: len(works)}, wire.Pending{}, nil
}

func (s *cannedSession) Fetch([]byte, float64) (wire.FetchResult, error) {
	s.replica++
	return wire.FetchResult{Assigned: true, Replica: s.replica, Work: bagGranularity}, nil
}

func (s *cannedSession) Report([]byte, uint64, bool) (wire.Ack, wire.Pending) {
	return wire.AckOK, wire.Pending{}
}

func (s *cannedSession) Heartbeat([]byte, uint64) wire.Ack { return wire.AckOK }
func (s *cannedSession) Flush([]wire.Pending) error        { return nil }
func (s *cannedSession) Close()                            {}
