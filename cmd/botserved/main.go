// Command botserved runs the knowledge-free bag-selection policies as a
// live work-dispatch daemon: workers poll it over HTTP for task replicas,
// in the BOINC/OurGrid pull style, and the same core.Scheduler that drives
// the simulator makes every decision in wall-clock time.
//
//	botserved -addr :8431 -policy LongIdle -workers 500 -lease 30s \
//	          -data-dir /var/lib/botgrid -fsync batch
//
// Endpoints (see internal/serve/protocol.go for the wire reference):
//
//	POST /v1/bags                   submit a Bag-of-Tasks
//	GET  /v1/bags/{id}              bag status
//	POST /v1/workers/{id}/fetch     request a task replica
//	POST /v1/workers/{id}/report    report done/failed
//	POST /v1/workers/{id}/heartbeat renew the lease
//	GET  /v1/stats                  scheduler snapshot
//	GET  /metrics                   expvar-style counters
//
// With -wire-addr set, the binary wire protocol (internal/wire) is served
// alongside HTTP on its own listener: persistent connections, batched
// fetch/report, and durability acks coalesced onto the journal's group
// commit. HTTP stays up as the compatibility front end; both transports
// drive the same scheduler state.
//
// With -data-dir set, every scheduler mutation is journaled (write-ahead
// log + periodic snapshots) and a restart — graceful or SIGKILL — recovers
// the complete pre-crash state: bags, queued and running tasks, worker
// registrations, replica leases and stats counters.
//
// With -shards N the dispatch plane splits into N independent scheduler
// shards, each with its own lock and its own journal under -data-dir, so
// requests from different workers proceed in parallel with no global
// mutex. The shard count is recorded in the data directory; restart with
// the same -shards to recover, or rewrite the layout offline with
// -reshard N first.
//
// SIGINT/SIGTERM drain gracefully: the listener closes immediately,
// in-flight requests finish (bounded by -grace), a final snapshot is
// written, then the process exits.
//
// With -peers and -node-id, botserved runs as one member of a replicated
// dispatch cluster: the nodes elect a leader, the leader streams every
// journal record to the followers and acks submits and done-reports only
// once a quorum holds them durably, and a killed leader is replaced by a
// follower with no acked work lost. Followers redirect dispatch traffic to
// the leader. A 3-node cluster is three invocations of the same binary:
//
//	botserved -addr 127.0.0.1:8431 -data-dir /var/lib/bg/a -node-id a \
//	          -peers a=127.0.0.1:9431,b=127.0.0.1:9432,c=127.0.0.1:9433
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/journal"
	"botgrid/internal/replicate"
	"botgrid/internal/serve"
	"botgrid/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8431", "listen address")
		policy   = flag.String("policy", "FCFS-Share", "bag-selection policy")
		workers  = flag.Int("workers", 256, "maximum registered workers")
		power    = flag.Float64("power", 10, "nominal worker computing power")
		thresh   = flag.Int("threshold", 2, "WQR-FT replication threshold")
		lease    = flag.Duration("lease", 30*time.Second, "worker lease (silence past it = machine failure)")
		retry    = flag.Int("retryms", 100, "idle-poll retry hint, milliseconds")
		seed     = flag.Uint64("seed", 42, "seed for the Random policy")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown drain timeout")
		dataDir  = flag.String("data-dir", "", "journal directory for crash recovery (empty: in-memory only)")
		fsync    = flag.String("fsync", "batch", "journal durability: batch (fsync before every ack; always is the same) or off")
		mtbf     = flag.Duration("snapshot-mtbf", 10*time.Minute, "expected crash interval driving the snapshot cadence")
		shards   = flag.Int("shards", 1, "scheduler shards (independent lock + journal each)")
		rebal    = flag.Duration("rebalance", time.Second, "cross-shard rebalance cadence for FairShare/LongIdle (negative: off)")
		reshard  = flag.Int("reshard", 0, "rewrite -data-dir's journal layout for this many shards, then exit")
		wireAddr = flag.String("wire-addr", "", "binary wire protocol listen address (empty: HTTP only)")

		nodeID    = flag.String("node-id", "", "this node's ID in a replicated cluster (requires -peers)")
		peers     = flag.String("peers", "", "cluster members as id=host:port,... (replication listeners); empty runs standalone")
		advertise = flag.String("advertise", "", "dispatch address advertised to cluster peers for redirects (default -addr)")
		replLease = flag.Duration("repl-lease", 2*time.Second, "leader lease; a silent leader is replaced after it")
	)
	flag.Parse()

	k, err := core.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	fmode, err := journal.ParseFsyncMode(*fsync)
	if err != nil {
		log.Fatal(err)
	}
	if *reshard > 0 {
		if *dataDir == "" {
			log.Fatal("botserved: -reshard requires -data-dir")
		}
		if err := serve.Reshard(*dataDir, *reshard, fmode); err != nil {
			log.Fatal(err)
		}
		log.Printf("botserved: %s resharded for %d shards", *dataDir, *reshard)
		return
	}
	cfg := serve.Config{
		Policy:       k,
		MaxWorkers:   *workers,
		WorkerPower:  *power,
		Sched:        core.SchedConfig{Threshold: *thresh},
		Lease:        *lease,
		RetryMs:      *retry,
		Seed:         *seed,
		DataDir:      *dataDir,
		Fsync:        fmode,
		SnapshotMTBF: *mtbf,
		Shards:       *shards,
		Rebalance:    *rebal,
	}
	if *shards > 1 && *peers != "" {
		log.Fatal("botserved: replication (-peers) requires -shards 1")
	}
	if *wireAddr != "" && *peers != "" {
		// The binary protocol has no redirect story yet: followers steer
		// workers to the leader over HTTP only.
		log.Fatal("botserved: -wire-addr requires standalone mode (no -peers)")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("botserved: policy %s, %d worker slots, lease %s, on http://%s/",
		k, *workers, *lease, ln.Addr())
	if *peers != "" {
		if *nodeID == "" {
			log.Fatal("botserved: -peers requires -node-id")
		}
		if *dataDir == "" {
			log.Fatal("botserved: replication requires -data-dir")
		}
		pl, err := replicate.ParsePeers(*peers)
		if err != nil {
			log.Fatal(err)
		}
		httpAddr := *advertise
		if httpAddr == "" {
			httpAddr = *addr
		}
		rcfg := replicate.Config{
			NodeID:        *nodeID,
			Peers:         pl,
			Dir:           *dataDir,
			Lease:         *replLease,
			AdvertiseHTTP: httpAddr,
			Fsync:         cfg.Fsync,
			SnapshotMTBF:  cfg.SnapshotMTBF,
			Logf:          log.Printf,
		}
		cfg.DataDir = "" // the replication node owns the journal
		if err := runCluster(ctx, ln, cfg, rcfg, *grace); err != nil {
			log.Fatal(err)
		}
		log.Printf("botserved: cluster node %s drained and stopped", *nodeID)
		return
	}
	if err := run(ctx, ln, cfg, *wireAddr, *grace); err != nil {
		log.Fatal(err)
	}
	log.Printf("botserved: drained and stopped")
}

// runCluster serves one replicated cluster node on ln until ctx is
// cancelled, then drains like run: listener closed, in-flight requests
// finished (up to grace), replication streams stopped, and — when this
// node was leading — a final snapshot written.
func runCluster(ctx context.Context, ln net.Listener, cfg serve.Config, rcfg replicate.Config, grace time.Duration) error {
	g, err := serve.StartCluster(cfg, rcfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: g}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return errors.Join(err, g.Close())
	case <-ctx.Done():
	}
	shctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		hs.Close()
		return errors.Join(err, g.Close())
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return errors.Join(err, g.Close())
	}
	return g.Close()
}

// run serves cfg on ln until ctx is cancelled, then drains: the listener
// closes, in-flight requests finish (up to grace), the server's periodic
// loop stops, and — when journaling — a final snapshot is written so the
// next start recovers with zero log replay. It returns nil on a clean drain.
// With wireAddr set, the binary wire protocol is served alongside HTTP;
// its persistent connections are cut at drain (clients treat the drop
// like any other — fetch is idempotent, unacked reports retry).
func run(ctx context.Context, ln net.Listener, cfg serve.Config, wireAddr string, grace time.Duration) error {
	s, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()
	if rec := s.Recovery(); rec != nil {
		if rec.Fresh {
			log.Printf("botserved: journal initialized in %s (fsync=%s)", cfg.DataDir, cfg.Fsync)
		} else {
			log.Printf("botserved: recovered %s in %.3fs: snapshot@%d + %d records"+
				" (%d segments, %d torn bytes) -> %d bags, %d completed, %d workers,"+
				" %d running replicas, %d leases expired while down",
				cfg.DataDir, rec.DurationSec, rec.SnapshotLSN, rec.RecordsReplayed,
				rec.SegmentsScanned, rec.TornBytes, rec.Bags, rec.CompletedBags,
				rec.Workers, rec.Replicas, rec.LeasesExpired)
		}
	}
	var wsrv *wire.Server
	werrc := make(chan error, 1)
	if wireAddr != "" {
		wln, err := net.Listen("tcp", wireAddr)
		if err != nil {
			return err
		}
		wsrv = wire.NewServer(s.WireHandler())
		log.Printf("botserved: wire protocol on %s", wln.Addr())
		go func() { werrc <- wsrv.Serve(wln) }()
	}
	stopWire := func() error {
		if wsrv == nil {
			return nil
		}
		err := wsrv.Close()
		if serr := <-werrc; !errors.Is(serr, wire.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		wsrv = nil
		return err
	}
	hs := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return errors.Join(err, stopWire())
	case err := <-werrc:
		hs.Close()
		return errors.Join(err, wsrv.Close())
	case <-ctx.Done():
	}
	if err := stopWire(); err != nil {
		return err
	}
	shctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		hs.Close()
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	closed = true
	if err := s.Close(); err != nil {
		return fmt.Errorf("closing journal: %w", err)
	}
	if cfg.DataDir != "" {
		log.Printf("botserved: final snapshot written to %s", cfg.DataDir)
	}
	return nil
}
