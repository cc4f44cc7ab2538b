package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
	"botgrid/internal/serve"
	"botgrid/internal/wire"
)

// The dispatch-plane workloads. A plane is one serve.Server behind one
// bench-owned listener on 127.0.0.1:0, loaded by one closed-loop client per
// core: every client pulls and waits for the reply, as the paper's workers
// do. Everything a plane starts — listener, server goroutines, client
// connections, temp dir — is released by close, which returns only once the
// accept loop has returned.

// plane is one set-up dispatch service with its load generators.
type plane struct {
	e       *env
	name    string
	http    bool              // JSON/HTTP transport; otherwise the binary wire protocol
	durable bool              // journal in a temp dir
	fsync   journal.FsyncMode // the journal's mode; the zero value is batch
	cfg     serve.Config
	perSeg  int // dispatches per client per segment
	// handler, when set, answers the wire transport in the server's place
	// (the null-transport probe).
	handler wire.Handler

	srv     *serve.Server
	root    string // temp dir of this instance, "" when in memory
	stop    func() error
	drivers []driver
	dec     *planeTrace // the decorators' counters, nil when untraced

	acked, submits int64 // acknowledged done-reports and submits so far
}

// driver is one closed-loop client: a connection (or a share of the HTTP
// client's pool) multiplexing Identities worker identities.
type driver interface {
	// prime submits the bags the queue starts with.
	prime(bags int, out *driverSeg) error
	// dispatch runs the pull cycle until n more done-reports have been
	// acknowledged OK, keeping the queue topped up with one BagTasks-task
	// submit per BagTasks assignments received.
	dispatch(ctx context.Context, n int, out *driverSeg) error
	// drain reports the assignments still held, fetching nothing new.
	drain(ctx context.Context, out *driverSeg) error
	close() error
}

// driverSeg is what one driver measured in one segment.
type driverSeg struct {
	callsMs                  []float64
	attempted, failed        int64
	acked, submits, assigned int64
	fetches                  int64
	requests                 int64         // round-trips, timed or not
	rtt                      time.Duration // all round-trips together
	build                    time.Duration // driver time outside the round-trips
}

func (p *plane) config() serve.Config {
	return serve.Config{
		Policy:     core.FairShare,
		MaxWorkers: p.e.nproc * p.e.sz.Identities,
		// No replication: FairShare would hand the tail of every bag out
		// twice, and the loser's report comes back stale. With one replica
		// per task every report is acknowledged OK and the counts repeat
		// exactly; WQR-FT's replication is the simulator workloads' job.
		Sched:   core.SchedConfig{Threshold: 1},
		RetryMs: 1,
		Seed:    p.e.seed,
		Shards:  1,
	}
}

func setupServeWire(ctx context.Context, e *env, traced bool) (system, error) {
	return startPlane(ctx, &plane{e: e, name: "serve-wire", perSeg: e.sz.WireDispatch}, traced)
}

func setupServeDurable(ctx context.Context, e *env, traced bool) (system, error) {
	return startPlane(ctx, &plane{e: e, name: "serve-durable", durable: true, perSeg: e.sz.DurableDispatch}, traced)
}

func setupServeHTTP(ctx context.Context, e *env, traced bool) (system, error) {
	return startPlane(ctx, &plane{e: e, name: "serve-http", http: true, perSeg: e.sz.HTTPDispatch}, traced)
}

// startPlane builds the server, opens its listener, connects the clients and
// primes the queue. On any error it releases what it had acquired.
func startPlane(ctx context.Context, p *plane, traced bool) (_ *plane, err error) {
	defer func() {
		if err != nil {
			err = errors.Join(err, p.close())
		}
	}()
	if traced {
		p.dec = newPlaneTrace(p.e.tr, p.e.nproc)
	}
	p.cfg = p.config()
	if p.durable {
		if p.root, err = os.MkdirTemp("", "botbench-"+p.name+"-"); err != nil {
			return nil, err
		}
		if err := p.journalInto(filepath.Join(p.root, "live"), p.fsync); err != nil {
			return nil, err
		}
	}
	if p.srv, err = serve.NewServer(p.cfg); err != nil {
		return nil, err
	}
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	if p.dec != nil {
		ln = &countingListener{Listener: ln, t: p.dec}
	}
	addr := ln.Addr().String()
	if p.http {
		p.stop = serveHTTP(ln, p.srv, p.dec)
		client := serve.NewClient("http://" + addr)
		for i := 0; i < p.e.nproc; i++ {
			p.drivers = append(p.drivers, newHTTPDriver(p.e, i, client, p.dec))
		}
	} else {
		h := p.handler
		if h == nil {
			h = p.srv.WireHandler()
		}
		p.stop = serveWire(ln, h, p.dec)
		// Dialled one after the other, so connection i on the server is
		// client i: the decorators rely on it to pair their spans.
		for i := 0; i < p.e.nproc; i++ {
			d, err := newWireDriver(p.e, i, addr, p.dec)
			if err != nil {
				return nil, err
			}
			p.drivers = append(p.drivers, d)
		}
	}
	var primed driverSeg
	if err := p.drivers[0].prime(p.e.sz.PrimeBags, &primed); err != nil {
		return nil, fmt.Errorf("priming the queue: %w", err)
	}
	p.submits += primed.submits
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	return p, nil
}

// journalInto points the plane's config at a journal in dir. Untraced, the
// server opens it itself from DataDir, as an operator's would; traced, the
// bench opens it and hands the server a timing wrapper through the
// Config.Log seam the replication layer uses.
func (p *plane) journalInto(dir string, mode journal.FsyncMode) error {
	// A year: Young's formula then never asks for a snapshot inside a run,
	// so recovery replays the whole log.
	const mtbf = 365 * 24 * time.Hour
	if p.dec == nil {
		p.cfg.DataDir, p.cfg.Fsync, p.cfg.SnapshotMTBF = dir, mode, mtbf
		return nil
	}
	j, rec, err := journal.Open(journal.Options{Dir: dir, Fsync: mode, SnapshotMTBF: mtbf})
	if err != nil {
		return err
	}
	p.cfg.Log, p.cfg.Recovered = &tracedLog{Log: j, t: p.dec}, rec
	return nil
}

// listen opens a bench-owned listener on a free loopback port.
func listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil && hooks.listening != nil {
		hooks.listening(ln.Addr().String())
	}
	return ln, err
}

// serveWire runs the binary transport on ln and returns the function that
// stops it and waits for the accept loop.
func serveWire(ln net.Listener, h wire.Handler, dec *planeTrace) func() error {
	if dec != nil {
		h = &tracedHandler{inner: h, t: dec}
	}
	ws := wire.NewServer(h)
	served := make(chan error, 1)
	go func() { served <- ws.Serve(ln) }()
	return func() error {
		err := ws.Close()
		if serr := <-served; !errors.Is(serr, wire.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
}

// serveHTTP runs the JSON transport on ln, likewise.
func serveHTTP(ln net.Listener, h http.Handler, dec *planeTrace) func() error {
	hs := &http.Server{Handler: h}
	if dec != nil {
		hs.Handler = &tracedHTTP{inner: h, t: dec}
		hs.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dec.httpConns.Add(1)
			}
		}
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	return func() error {
		err := hs.Close()
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
}

func (p *plane) segment(ctx context.Context, k int) (segResult, error) {
	n := p.perSeg
	if k == warmUp {
		n = groups(int(float64(n) * warmShare))
	}
	segs := make([]driverSeg, len(p.drivers))
	errs := make([]error, len(p.drivers))
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range p.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.dispatch(ctx, n, &segs[i])
		}()
	}
	wg.Wait()
	seg := segResult{wall: time.Since(start)}
	if err := errors.Join(errs...); err != nil {
		return seg, err
	}
	p.fold(&seg, segs)
	if p.dec != nil {
		if k == warmUp {
			p.dec.on.Store(true)
		} else {
			p.dec.wall += seg.wall
		}
	}
	return seg, nil
}

// fold merges the drivers' segments into seg and the plane's totals.
func (p *plane) fold(seg *segResult, segs []driverSeg) {
	for _, d := range segs {
		seg.ops += float64(d.acked)
		seg.callsMs = append(seg.callsMs, d.callsMs...)
		seg.attempted += d.attempted
		seg.failed += d.failed
		p.acked += d.acked
		p.submits += d.submits
		if p.dec != nil && p.dec.on.Load() {
			p.dec.client(d)
		}
	}
}

// finish drains the clients, then holds the server to what the clients
// were told: every acknowledged done-report is a completed task, nothing
// was reported stale, and — with a journal — a crash right now would lose
// none of it.
func (p *plane) finish(ctx context.Context) ([]check, error) {
	tail, err := p.drain(ctx)
	if err != nil {
		return nil, err
	}
	st, err := readStats(p.srv)
	if err != nil {
		return nil, err
	}
	checks := []check{
		{"completed-equals-acked", int64(st.TasksCompleted) == p.acked,
			fmt.Sprintf("server completed %d tasks, clients hold %d acknowledgements", st.TasksCompleted, p.acked)},
		{"no-stale-reports", st.StaleReports == 0, fmt.Sprintf("%d stale", st.StaleReports)},
		{"no-failed-operations", tail.failed == 0, fmt.Sprintf("%d failed while draining", tail.failed)},
	}
	if p.dec != nil {
		p.dec.stats = st
	}
	if !p.durable {
		return checks, nil
	}
	image := filepath.Join(p.root, "image")
	appends, err := p.crashImage(ctx, image)
	if err != nil {
		return nil, err
	}
	if p.dec != nil {
		if p.dec.journalBytes, err = dirSize(image); err != nil {
			return nil, err
		}
		if err := p.dec.timeRecovery(p.config(), image, filepath.Join(p.root, "scratch")); err != nil {
			return nil, err
		}
	}
	rec, err := recoverImage(p.config(), image)
	if err != nil {
		return nil, err
	}
	return append(checks, rec.checks(appends, p.acked, p.submits)...), os.RemoveAll(image)
}

// drain has every client report what it still holds.
func (p *plane) drain(ctx context.Context) (segResult, error) {
	drained := make([]driverSeg, len(p.drivers))
	for i, d := range p.drivers {
		if err := d.drain(ctx, &drained[i]); err != nil {
			return segResult{}, fmt.Errorf("draining client %d: %w", i, err)
		}
	}
	var tail segResult
	p.fold(&tail, drained)
	return tail, nil
}

// checks holds a recovery to what the image's clients were told: the whole
// log was replayed, and nothing acknowledged is lost.
func (r recovered) checks(appends uint64, acked, submits int64) []check {
	return []check{
		{"recovery-replays-every-append", r.info.SnapshotLSN == 0 && uint64(r.info.RecordsReplayed) == appends,
			fmt.Sprintf("replayed %d of %d appended records from snapshot LSN %d", r.info.RecordsReplayed, appends, r.info.SnapshotLSN)},
		{"nothing-acknowledged-is-lost", int64(r.stats.TasksCompleted) >= acked && int64(r.stats.BagsSubmitted) >= submits,
			fmt.Sprintf("recovered %d tasks and %d bags, acknowledged %d and %d", r.stats.TasksCompleted, r.stats.BagsSubmitted, acked, submits)},
	}
}

// crashImage copies the live data dir to dst while the server is still
// open — what a crash would leave — and returns how many records the
// journal had accepted. It first waits for the group commit to catch up
// with the last append, so "every append" is a fair thing to ask of replay;
// the clients are idle, so that is a matter of one batch delay.
func (p *plane) crashImage(ctx context.Context, dst string) (appends uint64, err error) {
	for {
		st, err := readStats(p.srv)
		if err != nil {
			return 0, err
		}
		if st.Journal == nil {
			return 0, errors.New("the server reports no journal")
		}
		if st.Journal.DurableLSN == st.Journal.LastLSN {
			appends = st.Journal.Appends
			break
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("journal did not become durable: %w", context.Cause(ctx))
		case <-time.After(time.Millisecond):
		}
	}
	return appends, copyDir(filepath.Join(p.root, "live"), dst)
}

// recovered is what one recovery of a crash image found.
type recovered struct {
	took  time.Duration // serve.NewServer alone
	info  serve.RecoveryInfo
	stats serve.StatsResponse
}

// recoverImage starts a server on the image, the way botserved restarts
// after a crash, reads what it recovered and closes it again. The image is
// consumed: Close writes a snapshot into it.
func recoverImage(cfg serve.Config, image string) (recovered, error) {
	cfg.DataDir, cfg.Fsync, cfg.SnapshotMTBF = image, journal.FsyncBatch, 365*24*time.Hour
	start := time.Now()
	srv, err := serve.NewServer(cfg)
	rec := recovered{took: time.Since(start)}
	if err != nil {
		return rec, fmt.Errorf("recovering %s: %w", image, err)
	}
	if info := srv.Recovery(); info != nil {
		rec.info = *info
	}
	rec.stats, err = readStats(srv)
	return rec, errors.Join(err, srv.Close())
}

func (p *plane) close() error {
	var errs []error
	for _, d := range p.drivers {
		errs = append(errs, d.close())
	}
	if p.stop != nil {
		errs = append(errs, p.stop())
	}
	if p.srv != nil {
		errs = append(errs, p.srv.Close())
	} else if l := p.cfg.Log; l != nil {
		// NewServer never took ownership of the journal the bench opened.
		errs = append(errs, l.Close())
	}
	if p.root != "" {
		errs = append(errs, os.RemoveAll(p.root))
	}
	return errors.Join(errs...)
}

// readStats asks the server for /v1/stats in process — no listener, no
// connection — through the same handler an operator's curl reaches.
func readStats(srv http.Handler) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("/v1/stats: %w", err)
	}
	return st, nil
}

// copyDir copies the regular files under src to dst, creating dst, and
// syncs them: a crash image is on disk before anyone recovers it, and a
// recovery timed while the kernel is still writing the copy back would be
// timing the copy.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err = f.Write(data); err == nil {
			err = f.Sync()
		}
		return errors.Join(err, f.Close())
	})
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
