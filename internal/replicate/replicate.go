// Package replicate is the high-availability layer of the live dispatch
// service: leader-based replication of the journal's record log across a
// small cluster of botserved nodes.
//
// The design leans on two properties the durability subsystem already has.
// First, the scheduler's mutation stream (journaled as records) is a
// deterministic, decision-complete op log: replaying it rebuilds the exact
// scheduler state, so the journal records double as replicated log entries
// with no translation. Second, snapshots are self-contained images with an
// LSN anchor, so follower catch-up is "install the leader's snapshot, then
// stream the tail" — the same recovery path a single node takes from disk.
//
// Roles and flow:
//
//   - The leader owns the live scheduler. Every mutation is appended to the
//     local journal AND streamed to every follower; submit and done-report
//     acks wait until a quorum of nodes reports the record durable
//     (leader's fsync + follower match LSNs).
//   - Followers keep a journal of their own and, through the serving
//     layer's callbacks, a standby: a scheduler restored from that journal
//     that replays each entry (core.Scheduler.Replay) before the entry is
//     appended, so an entry the standby refuses never becomes durable.
//     They ack their durable LSN and serve no dispatch traffic; the HTTP
//     layer redirects to the leader.
//   - Leadership is a lease: a follower that hears nothing (entries or
//     heartbeats) past its election timeout starts an election with a
//     higher term. Votes require the candidate's (appendTerm, lastLSN) to
//     be at least the voter's, so an acked record — durable on a quorum —
//     is always on the winner's log. The winner attaches the log to its
//     standby, snapshots it as the anchor followers catch up from, and
//     starts serving; a deposed or stale leader's traffic is rejected by
//     term everywhere.
//
// Election timeouts are staggered deterministically by node index rather
// than randomized: with the small fixed-membership clusters this targets
// (3 or 5 nodes), the stagger breaks vote splits just as well and keeps
// failover latency predictable.
package replicate

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"botgrid/internal/journal"
)

// Peer identifies one cluster member: its node ID and the address its
// replication listener binds (host:port).
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// ParsePeers parses a cluster specification of the form
// "id=host:port,id=host:port,...". IDs must be unique and non-empty.
func ParsePeers(spec string) ([]Peer, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("replicate: empty peer list")
	}
	var peers []Peer
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("replicate: bad peer %q (want id=host:port)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("replicate: duplicate peer id %q", id)
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, Addr: addr})
	}
	return peers, nil
}

// Config tunes a cluster node.
type Config struct {
	// NodeID names this node; it must appear in Peers.
	NodeID string
	// Peers lists every cluster member, this node included. Quorum is
	// len(Peers)/2 + 1.
	Peers []Peer
	// Dir is the node's journal directory.
	Dir string
	// Lease is the leader lease: a follower that hears nothing for longer
	// (plus its deterministic stagger) starts an election. Default 2s.
	Lease time.Duration
	// Heartbeat is the leader's idle keep-alive interval. Default Lease/4.
	Heartbeat time.Duration
	// AdvertiseHTTP is this node's dispatch endpoint (host:port), shipped
	// to followers so they can redirect client traffic when it leads.
	AdvertiseHTTP string
	// Fsync and SnapshotMTBF configure the node's journal.
	Fsync        journal.FsyncMode
	SnapshotMTBF time.Duration
	// Logf, when non-nil, receives role-transition and session log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 2 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.Lease / 4
	}
	return c
}

// validate checks the config and splits the peer list into self and others.
func (c Config) validate() (self Peer, others []Peer, err error) {
	if c.NodeID == "" {
		return self, nil, errors.New("replicate: Config.NodeID is required")
	}
	if c.Dir == "" {
		return self, nil, errors.New("replicate: Config.Dir is required")
	}
	found := false
	for _, p := range c.Peers {
		if p.ID == c.NodeID {
			self, found = p, true
		} else {
			others = append(others, p)
		}
	}
	if !found {
		return self, nil, fmt.Errorf("replicate: node %q not in peer list", c.NodeID)
	}
	return self, others, nil
}

// quorum returns the majority size for n cluster members.
func quorum(n int) int { return n/2 + 1 }

// peerIndex returns this node's position in the ID-sorted peer list; the
// election stagger derives from it.
func peerIndex(peers []Peer, id string) int {
	ids := make([]string, len(peers))
	for i, p := range peers {
		ids[i] = p.ID
	}
	sort.Strings(ids)
	for i, pid := range ids {
		if pid == id {
			return i
		}
	}
	return 0
}

// Role is a node's position in the cluster.
type Role int

const (
	// RoleFollower applies the leader's entries and serves no traffic.
	RoleFollower Role = iota
	// RoleCandidate is mid-election.
	RoleCandidate
	// RoleLeader owns the live scheduler and the record log.
	RoleLeader
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleCandidate:
		return "candidate"
	default:
		return "follower"
	}
}

// FollowerStatus is the leader's view of one follower.
type FollowerStatus struct {
	ID string `json:"id"`
	// MatchLSN is the newest record the follower has reported durable.
	MatchLSN uint64 `json:"match_lsn"`
	// Connected reports whether a replication session is currently up.
	Connected bool `json:"connected"`
}

// Status is a point-in-time snapshot of a node's replication state, served
// on /v1/stats and /metrics next to the journal counters.
type Status struct {
	NodeID string `json:"node_id"`
	Role   string `json:"role"`
	Term   uint64 `json:"term"`
	// LeaderID/LeaderHTTP name the leader this node last heard from (its
	// own ID when leading).
	LeaderID   string `json:"leader_id,omitempty"`
	LeaderHTTP string `json:"leader_http,omitempty"`
	// CommitLSN is the newest quorum-durable record; LastLSN the newest
	// appended locally.
	CommitLSN uint64 `json:"commit_lsn"`
	LastLSN   uint64 `json:"last_lsn"`
	// Followers is the per-follower match state (leader only).
	Followers []FollowerStatus `json:"followers,omitempty"`
	// Elections counts elections this node started; LastFailoverUnix is
	// the wall time of the last leadership change this node observed after
	// the initial election (0: none).
	Elections        int     `json:"elections"`
	LastFailoverUnix float64 `json:"last_failover_unix,omitempty"`
	// Fatal is the error that stopped this node from campaigning or
	// leading again ("" while healthy); see Node.Err.
	Fatal string `json:"fatal,omitempty"`
}

// Term-state persistence: the TERM file holds the node's current term, its
// vote in that term, and the term of its newest log entry. It is tiny and
// rewritten atomically; it changes on elections and leader changes, never
// per record.

const termFileFormat = "botgrid-term v1\nterm %d\nvote %q\nappendterm %d\n"

// loadTermState reads the TERM file, returning zeros when absent.
func loadTermState(dir string) (term uint64, votedFor string, appendTerm uint64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, "TERM"))
	if errors.Is(err, os.ErrNotExist) {
		return 0, "", 0, nil
	}
	if err != nil {
		return 0, "", 0, err
	}
	if _, err := fmt.Sscanf(string(data), termFileFormat, &term, &votedFor, &appendTerm); err != nil {
		return 0, "", 0, fmt.Errorf("replicate: unreadable TERM file: %w", err)
	}
	return term, votedFor, appendTerm, nil
}

// saveTermState atomically rewrites the TERM file.
func saveTermState(dir string, term uint64, votedFor string, appendTerm uint64) error {
	content := fmt.Sprintf(termFileFormat, term, votedFor, appendTerm)
	return journal.WriteFileAtomic(dir, "TERM", "TERM.tmp", []byte(content))
}
