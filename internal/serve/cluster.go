package serve

// Cluster glue: a Gate runs one node of a replicated dispatch cluster.
// While the node leads, the Gate serves through a full Server whose record
// log is the node's quorum-ack Replica; while it follows, the Gate answers
// /v1/stats and /metrics with the replication state and redirects
// everything else to the leader. Role transitions (the replication layer's
// OnLeader/OnFollower callbacks) swap the Server in and out atomically —
// a request never observes a half-built one.

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"

	"botgrid/internal/journal"
	"botgrid/internal/replicate"
)

// ReplicationSource exposes a cluster node's replication state; served on
// /v1/stats and /metrics next to the journal counters.
type ReplicationSource interface {
	ReplicationStatus() replicate.Status
}

// Gate is one cluster member's HTTP front: a full dispatch Server while
// leading, a redirector while following. It implements http.Handler.
type Gate struct {
	node *replicate.Node
	srv  atomic.Pointer[Server]
	logf func(string, ...any)

	closeOnce sync.Once
	closeErr  error
}

// StartCluster opens this node's journal, joins the replication cluster,
// and returns the Gate to serve HTTP through. cfg's DataDir/Clock are
// ignored: the journal belongs to the replication node (rcfg.Dir), and the
// clock continues the journaled timeline across failovers.
// While the node follows, the Gate keeps a standby server whose scheduler
// replays every leader entry; winning an election resumes it on the
// replicated log.
func StartCluster(cfg Config, rcfg replicate.Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards > 1 {
		return nil, errors.New("serve: replication requires a single shard")
	}
	cfg.DataDir, cfg.Clock, cfg.Log, cfg.Recovered = "", nil, nil, nil
	node, err := replicate.Open(rcfg)
	if err != nil {
		return nil, err
	}
	g := &Gate{node: node, logf: rcfg.Logf}
	if g.logf == nil {
		g.logf = func(string, ...any) {}
	}
	cfg.Replication = node
	var standby *Server // the node runs one callback at a time, each after the last
	cb := replicate.Callbacks{
		OnFollow: func(rec *journal.Recovered) (err error) {
			standby, err = newServer(cfg, []*journal.Recovered{rec})
			return err
		},
		OnEntry: func(lsn uint64, r *journal.Record) error { return standby.shards[0].applyEntry(lsn, r) },
		OnLeader: func(rep *replicate.Replica) error {
			srv := standby
			// Followers catch up from the promotion snapshot; nothing else
			// writes one before launch starts the periodic work.
			err := srv.resume([]Log{rep})
			if err == nil {
				err = srv.shards[0].snapshot()
			}
			if err != nil {
				return errors.Join(err, rep.Close())
			}
			srv.launch()
			g.srv.Store(srv)
			return nil
		},
		OnFollower: func() {
			if srv := g.srv.Swap(nil); srv != nil {
				if err := srv.Close(); err != nil {
					g.logf("serve: closing deposed leader service: %v", err)
				}
			}
		},
	}
	if err := node.Start(cb); err != nil {
		return nil, errors.Join(err, node.Stop())
	}
	return g, nil
}

// Node returns the underlying replication node.
func (g *Gate) Node() *replicate.Node { return g.node }

// Leading reports whether this node currently serves as leader.
func (g *Gate) Leading() bool { return g.srv.Load() != nil }

// ServeHTTP serves dispatch traffic while leading. While following,
// /v1/stats and /metrics answer locally with the replication state; every
// other request is redirected to the leader (307, so clients replay the
// request body there) or refused with 503 while no leader is known.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if srv := g.srv.Load(); srv != nil {
		srv.ServeHTTP(w, r)
		return
	}
	rs := g.node.ReplicationStatus()
	switch r.URL.Path {
	case "/v1/stats":
		writeJSON(w, http.StatusOK, StatsResponse{Replication: &rs})
	case "/metrics":
		writeJSON(w, http.StatusOK, struct {
			Replication *replicate.Status `json:"replication"`
		}{&rs})
	default:
		// A leader without a Server is this node mid-promotion; tell the
		// client to retry rather than redirect it to ourselves.
		if rs.LeaderHTTP == "" || rs.Role != RoleFollowerName {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "no leader elected")
			return
		}
		http.Redirect(w, r, "http://"+rs.LeaderHTTP+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}
}

// RoleFollowerName is the follower role's wire spelling in Status.Role.
const RoleFollowerName = "follower"

// Close leaves the cluster and shuts the node down: replication streams
// stop, and — when this node was leading — the dispatch server writes its
// final snapshot and closes the journal.
func (g *Gate) Close() error {
	g.closeOnce.Do(func() {
		err := g.node.Stop()
		if srv := g.srv.Swap(nil); srv != nil {
			err = errors.Join(err, srv.Close())
		}
		g.closeErr = err
	})
	return g.closeErr
}
