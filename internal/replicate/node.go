package replicate

// Node is one cluster member's control plane: it owns the journal while
// the node follows, hands each leader entry to the serving layer's
// standby before appending it, runs elections on lease expiry, and hands
// the journal to a Replica (plus the standby, via callbacks) when this
// node wins. The node keeps no copy of the dispatch state: the standby,
// a live scheduler in replay mode, is the only one.
//
// Journal ownership moves with the role. A follower's Node holds the
// journal open and appends replicated entries to it; a snapshot install
// closes it, wipes the history, and reopens it. Winning an election hands
// the open journal to the new Replica; losing leadership closes it (inside
// the serve layer's shutdown) and the Node reopens it to follow again.
// Every (re)open rebuilds the standby through OnFollow.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"botgrid/internal/frame"
	"botgrid/internal/journal"
)

// Callbacks connect the node to the serving layer. They are invoked from
// node goroutines, never concurrently with each other.
type Callbacks struct {
	// OnFollow is called whenever the node (re)opens its journal to
	// follow — at Start, after installing a leader's snapshot and after
	// losing leadership — with what journal.Open recovered. It builds the
	// standby that OnEntry feeds and OnLeader promotes: the snapshot
	// restored and the log tail replayed. A returned error halts the node.
	OnFollow func(rec *journal.Recovered) error
	// OnEntry applies the replicated record with LSN lsn to the standby
	// before the node appends it to the journal. An error refuses the
	// entry: a record the standby cannot apply never becomes durable.
	OnEntry func(lsn uint64, r *journal.Record) error
	// OnLeader is called when this node wins an election: it attaches
	// rep, the replicated log, to the standby and starts serving. Before
	// it returns it writes a snapshot through rep covering all the
	// standby holds; followers catch up from that snapshot, and the node
	// starts rep's streams only once OnLeader returns. A returned error
	// aborts the promotion and halts the node.
	OnLeader func(rep *Replica) error
	// OnFollower is called after leadership is lost; it must tear down
	// whatever OnLeader built and close the Replica before returning, so
	// the node can reopen the journal and rejoin as a follower.
	OnFollower func()
}

// Node is one replication cluster member.
type Node struct {
	cfg    Config
	self   Peer
	others []Peer
	idx    int // position in the ID-sorted peer list; drives the stagger
	cb     Callbacks
	logf   func(string, ...any)

	ln   net.Listener
	stop chan struct{}
	wg   sync.WaitGroup

	// cbMu serializes role transitions end-to-end (promotion, demotion),
	// callbacks included; n.mu stays cheap and is never held across I/O
	// other than the short journal swap during a snapshot install.
	cbMu sync.Mutex

	mu         sync.Mutex
	term       uint64    //botlint:guarded-by mu
	votedFor   string    //botlint:guarded-by mu
	appendTerm uint64    //botlint:guarded-by mu
	role       Role      //botlint:guarded-by mu
	leaderID   string    //botlint:guarded-by mu
	leaderHTTP string    //botlint:guarded-by mu
	leaderSeen time.Time //botlint:guarded-by mu
	commit     uint64    //botlint:guarded-by mu

	// Follower-mode log state (nil while this node leads).
	jnl     *journal.Journal //botlint:guarded-by mu
	lastLSN uint64           //botlint:guarded-by mu

	boot *journal.Recovered // what Open recovered, for Start's OnFollow

	// rep is the leader-mode log (nil otherwise).
	rep *Replica //botlint:guarded-by mu

	// cur is the current leader session, if any.
	cur *session //botlint:guarded-by mu

	elections    int       //botlint:guarded-by mu
	lastFailover time.Time //botlint:guarded-by mu
	fatal        error     //botlint:guarded-by mu
	closed       bool      //botlint:guarded-by mu
}

// session is one accepted leader connection.
type session struct {
	conn     net.Conn
	leaderID string
	ackKick  chan struct{}
	done     chan struct{}
}

// Open recovers the node's journal and term state. The node is a follower
// until Start runs an election.
func Open(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	self, others, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	jnl, rec, err := cfg.openJournal()
	if err != nil {
		return nil, err
	}
	term, votedFor, appendTerm, err := loadTermState(cfg.Dir)
	if err != nil {
		err = errors.Join(err, jnl.Close())
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Node{
		cfg:        cfg,
		self:       self,
		others:     others,
		idx:        peerIndex(cfg.Peers, cfg.NodeID),
		logf:       logf,
		stop:       make(chan struct{}),
		term:       term,
		votedFor:   votedFor,
		appendTerm: appendTerm,
		jnl:        jnl,
		lastLSN:    rec.LastLSN,
		boot:       rec,
	}, nil
}

// openJournal opens the node's journal directory with c's settings: at
// Open, after a demotion and after a snapshot install.
func (c Config) openJournal() (*journal.Journal, *journal.Recovered, error) {
	return journal.Open(journal.Options{Dir: c.Dir, Fsync: c.Fsync, SnapshotMTBF: c.SnapshotMTBF})
}

// Start builds the standby from the journal Open recovered (OnFollow),
// then begins listening for replication traffic and running the election
// clock.
func (n *Node) Start(cb Callbacks) error {
	n.cb = cb
	if err := cb.OnFollow(n.boot); err != nil {
		return fmt.Errorf("replicate: building the standby: %w", err)
	}
	ln, err := net.Listen("tcp", n.self.Addr)
	if err != nil {
		return err
	}
	n.ln = ln
	n.mu.Lock()
	n.leaderSeen = time.Now()
	n.mu.Unlock()
	n.wg.Add(2)
	go n.acceptLoop()
	go n.electionLoop()
	return nil
}

// Addr returns the replication listener's address (useful with ":0").
func (n *Node) Addr() net.Addr { return n.ln.Addr() }

// Stop halts the node: listener, sessions and elections. A follower's
// journal is closed here; a leader's journal is owned by the serve layer
// and must be closed by it (Server.Close) after Stop returns.
func (n *Node) Stop() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return nil
	}
	n.closed = true
	cur := n.cur
	n.mu.Unlock()
	close(n.stop)
	if n.ln != nil {
		n.ln.Close()
	}
	if cur != nil {
		cur.conn.Close()
	}
	n.wg.Wait()
	n.mu.Lock()
	jnl := n.jnl
	n.jnl = nil
	n.mu.Unlock()
	if jnl != nil {
		return jnl.Close()
	}
	return nil
}

// ReplicationStatus reports the node's current replication state.
func (n *Node) ReplicationStatus() Status {
	n.mu.Lock()
	rep := n.rep
	st := Status{
		NodeID:     n.cfg.NodeID,
		Role:       n.role.String(),
		Term:       n.term,
		LeaderID:   n.leaderID,
		LeaderHTTP: n.leaderHTTP,
		CommitLSN:  n.commit,
		LastLSN:    n.lastLSN,
		Elections:  n.elections,
	}
	if !n.lastFailover.IsZero() {
		st.LastFailoverUnix = float64(n.lastFailover.UnixNano()) / 1e9
	}
	if n.fatal != nil {
		st.Fatal = n.fatal.Error()
	}
	n.mu.Unlock()
	if rep != nil {
		rst := rep.Status()
		rst.Elections = st.Elections
		rst.LastFailoverUnix = st.LastFailoverUnix
		rst.Fatal = st.Fatal
		return rst
	}
	return st
}

// LeaderHTTP returns the advertised dispatch endpoint of the current
// leader ("" when unknown).
func (n *Node) LeaderHTTP() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader {
		return n.cfg.AdvertiseHTTP
	}
	return n.leaderHTTP
}

// Leading reports whether this node currently leads.
func (n *Node) Leading() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RoleLeader
}

// adoptTermLocked moves to a newer term, clearing the vote. Must be called
// with mu held.
//
//botlint:holds mu
func (n *Node) adoptTermLocked(term uint64, votedFor string) error {
	n.term = term
	n.votedFor = votedFor
	return saveTermState(n.cfg.Dir, n.term, n.votedFor, n.appendTerm)
}

// acceptLoop accepts replication connections until the listener closes.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleConn(conn)
		}()
	}
}

// handleConn dispatches one inbound connection: a vote request or a leader
// session.
func (n *Node) handleConn(conn net.Conn) {
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(n.cfg.Lease * 2)); err != nil {
		return
	}
	typ, payload, buf, err := frame.Read(conn, nil, msgMax)
	if err != nil {
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return
	}
	switch typ {
	case msgVoteReq:
		var req voteReqMsg
		if err := decodeJSON(payload, &req); err != nil {
			return
		}
		resp := n.handleVote(req)
		if err := sendJSON(conn, msgVoteResp, resp); err != nil {
			n.logf("replicate: %s: vote reply: %v", n.cfg.NodeID, err)
		}
	case msgHello:
		var hello helloMsg
		if err := decodeJSON(payload, &hello); err != nil {
			return
		}
		n.runFollowerSession(conn, hello, buf)
	}
}

// handleVote applies the election rules: refuse stale terms, adopt newer
// ones, and grant at most one vote per term — only to a candidate whose
// (appendTerm, lastLSN) is at least ours, so a quorum-durable record is
// always on the winner's log. A fatal node refuses every vote: its log
// position no longer describes what its standby holds. The flag lasts
// until the process restarts; a snapshot install does not clear it.
func (n *Node) handleVote(req voteReqMsg) voteRespMsg {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Term < n.term || n.fatal != nil {
		return voteRespMsg{Term: n.term, Granted: false}
	}
	if req.Term > n.term {
		if err := n.adoptTermLocked(req.Term, ""); err != nil {
			n.logf("replicate: %s: persisting term %d: %v", n.cfg.NodeID, req.Term, err)
			return voteRespMsg{Term: n.term, Granted: false}
		}
		if n.role == RoleLeader && n.rep != nil {
			// Deposed by a newer election; the watcher demotes us.
			n.rep.depose()
		}
		if n.role != RoleLeader {
			n.role = RoleFollower
		}
	}
	if n.role == RoleLeader {
		// Still tearing down; refuse rather than reason about a log in
		// flight between owners.
		return voteRespMsg{Term: n.term, Granted: false}
	}
	upToDate := req.LastTerm > n.appendTerm ||
		(req.LastTerm == n.appendTerm && req.LastLSN >= n.lastLSN)
	if (n.votedFor == "" || n.votedFor == req.CandidateID) && upToDate {
		if err := saveTermState(n.cfg.Dir, n.term, req.CandidateID, n.appendTerm); err != nil {
			n.logf("replicate: %s: persisting vote: %v", n.cfg.NodeID, err)
			return voteRespMsg{Term: n.term, Granted: false}
		}
		n.votedFor = req.CandidateID
		n.leaderSeen = time.Now() // granting a vote re-arms the election timer
		return voteRespMsg{Term: n.term, Granted: true}
	}
	return voteRespMsg{Term: n.term, Granted: false}
}

// electionLoop watches the leader lease and starts elections when it
// lapses. The timeout is staggered by node index — deterministic tie
// breaking for small fixed clusters.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	poll := n.cfg.Lease / 10
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
		}
		n.mu.Lock()
		timeout := n.cfg.Lease + time.Duration(n.idx)*n.cfg.Lease/2
		due := n.role == RoleFollower && n.jnl != nil && n.fatal == nil &&
			time.Since(n.leaderSeen) > timeout
		n.mu.Unlock()
		if due {
			n.runElection()
		}
	}
}

// runElection campaigns for leadership at a fresh term. A node with a
// fatal error never does.
func (n *Node) runElection() {
	n.mu.Lock()
	if n.role != RoleFollower || n.jnl == nil || n.closed || n.fatal != nil {
		n.mu.Unlock()
		return
	}
	if err := n.adoptTermLocked(n.term+1, n.cfg.NodeID); err != nil {
		n.logf("replicate: %s: persisting candidacy: %v", n.cfg.NodeID, err)
		n.mu.Unlock()
		return
	}
	n.role = RoleCandidate
	n.elections++
	req := voteReqMsg{
		Term:        n.term,
		CandidateID: n.cfg.NodeID,
		LastTerm:    n.appendTerm,
		LastLSN:     n.lastLSN,
	}
	n.mu.Unlock()
	n.logf("replicate: %s: election at term %d (log %d/%d)",
		n.cfg.NodeID, req.Term, req.LastTerm, req.LastLSN)

	type result struct {
		resp voteRespMsg
		ok   bool
	}
	results := make(chan result, len(n.others))
	for _, p := range n.others {
		go func(p Peer) {
			resp, err := askVote(p, req, n.cfg.Lease)
			results <- result{resp, err == nil}
		}(p)
	}
	votes := 1 // self
	var higher uint64
	for range n.others {
		res := <-results
		if !res.ok {
			continue
		}
		if res.resp.Granted {
			votes++
		} else if res.resp.Term > higher {
			higher = res.resp.Term
		}
	}

	n.mu.Lock()
	if higher > n.term {
		if err := n.adoptTermLocked(higher, ""); err != nil {
			n.logf("replicate: %s: persisting term %d: %v", n.cfg.NodeID, higher, err)
		}
	}
	stillCandidate := n.role == RoleCandidate && n.term == req.Term
	won := stillCandidate && votes >= quorum(len(n.cfg.Peers))
	if stillCandidate && !won {
		n.role = RoleFollower
		n.leaderSeen = time.Now() // full timeout before retrying
	}
	n.mu.Unlock()
	if won {
		n.becomeLeader(req.Term)
	}
}

// askVote requests one vote over a one-shot connection.
func askVote(p Peer, req voteReqMsg, lease time.Duration) (voteRespMsg, error) {
	var resp voteRespMsg
	conn, err := net.DialTimeout("tcp", p.Addr, lease/2)
	if err != nil {
		return resp, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(lease)); err != nil {
		return resp, err
	}
	if err := sendJSON(conn, msgVoteReq, req); err != nil {
		return resp, err
	}
	typ, payload, _, err := frame.Read(conn, nil, msgMax)
	if err != nil {
		return resp, err
	}
	if typ != msgVoteResp {
		return resp, badFrame("vote answered with type %d", typ)
	}
	err = decodeJSON(payload, &resp)
	return resp, err
}

// becomeLeader promotes this node: the journal moves into a Replica,
// OnLeader attaches it to the standby, starts the dispatch service on top
// and snapshots the catch-up anchor for followers, and the Replica's
// streams start.
func (n *Node) becomeLeader(term uint64) {
	n.cbMu.Lock()
	defer n.cbMu.Unlock()
	n.mu.Lock()
	if n.role != RoleCandidate || n.term != term || n.closed {
		n.mu.Unlock()
		return
	}
	n.role = RoleLeader
	if n.leaderID != "" && n.leaderID != n.cfg.NodeID {
		n.lastFailover = time.Now()
	}
	n.leaderID = n.cfg.NodeID
	n.leaderHTTP = n.cfg.AdvertiseHTTP
	// The new leadership's entries carry this term; inflate appendTerm now
	// (the Raft no-op analog) so our log position wins comparisons against
	// any stale pre-election logs.
	n.appendTerm = term
	if err := saveTermState(n.cfg.Dir, n.term, n.votedFor, n.appendTerm); err != nil {
		n.failLocked(fmt.Errorf("persisting promotion: %w", err))
		n.mu.Unlock()
		return
	}
	jnl, lastLSN := n.jnl, n.lastLSN
	n.jnl = nil
	rep := newReplica(n.cfg, term, jnl, lastLSN)
	n.rep = rep
	n.commit = lastLSN
	cur := n.cur
	n.cur = nil
	n.mu.Unlock()
	if cur != nil {
		cur.conn.Close() // a lingering session from the old leader
	}
	n.logf("replicate: %s: leading at term %d from LSN %d", n.cfg.NodeID, term, lastLSN)

	if err := n.cb.OnLeader(rep); err != nil {
		n.fail(fmt.Errorf("starting leader service: %w", err))
		return
	}
	rep.start()
	n.wg.Add(1)
	go n.watchLeadership(rep)
}

// watchLeadership demotes the node when its Replica is deposed.
func (n *Node) watchLeadership(rep *Replica) {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
		}
		n.mu.Lock()
		rep2 := n.rep
		commit := n.commit
		n.mu.Unlock()
		if rep2 != rep {
			return
		}
		if c := rep.CommitLSN(); c > commit {
			n.mu.Lock()
			n.commit = c
			n.mu.Unlock()
		}
		if rep.Deposed() {
			n.demote(rep)
			return
		}
	}
}

// demote tears the leader service down and rejoins as a follower.
func (n *Node) demote(rep *Replica) {
	n.cbMu.Lock()
	defer n.cbMu.Unlock()
	n.mu.Lock()
	if n.rep != rep || n.closed {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	n.logf("replicate: %s: deposed at term %d, rejoining as follower", n.cfg.NodeID, rep.Term())
	// OnFollower closes the dispatch server, which closes the Replica and
	// with it the journal — after this the directory is free to reopen.
	if n.cb.OnFollower != nil {
		n.cb.OnFollower()
	}
	if err := rep.Close(); err != nil && !errors.Is(err, journal.ErrClosed) {
		n.logf("replicate: %s: closing deposed log: %v", n.cfg.NodeID, err)
	}
	jnl, rec, err := n.cfg.openJournal()
	if err != nil {
		n.fail(fmt.Errorf("reopening journal after demotion: %w", err))
		return
	}
	// No entry reaches the standby before n.jnl is set below, so it can be
	// rebuilt outside mu.
	if err := n.cb.OnFollow(rec); err != nil {
		n.fail(errors.Join(fmt.Errorf("rebuilding the standby after demotion: %w", err), jnl.Close()))
		return
	}
	n.mu.Lock()
	n.rep = nil
	n.role = RoleFollower
	n.jnl = jnl
	n.lastLSN = rec.LastLSN
	n.lastFailover = time.Now()
	n.leaderSeen = time.Now()
	n.mu.Unlock()
}

// fail records a fatal node error; the node stops participating.
func (n *Node) fail(err error) {
	n.mu.Lock()
	n.failLocked(err)
	n.mu.Unlock()
}

//botlint:holds mu
func (n *Node) failLocked(err error) {
	if n.fatal == nil {
		n.fatal = err
	}
	n.logf("replicate: %s: fatal: %v", n.cfg.NodeID, err)
}

// Err returns the node's fatal error, if any.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fatal
}

// runFollowerSession serves one leader's replication stream: adopt the
// term, answer with our log position, install the shipped snapshot, then
// append entries and ack durable LSNs until the connection dies.
func (n *Node) runFollowerSession(conn net.Conn, hello helloMsg, buf []byte) {
	n.mu.Lock()
	if hello.Term < n.term {
		term := n.term
		n.mu.Unlock()
		if err := sendJSON(conn, msgReject, rejectMsg{Term: term}); err != nil {
			n.logf("replicate: %s: reject send: %v", n.cfg.NodeID, err)
		}
		return
	}
	if hello.Term > n.term {
		if err := n.adoptTermLocked(hello.Term, ""); err != nil {
			n.mu.Unlock()
			n.logf("replicate: %s: persisting term %d: %v", n.cfg.NodeID, hello.Term, err)
			return
		}
	}
	if n.role == RoleLeader || n.jnl == nil {
		// Same term cannot have two leaders, so this hello is from a newer
		// election we just adopted: depose ourselves and let the leader
		// redial once the journal is back under follower ownership.
		if n.rep != nil {
			n.rep.depose()
		}
		n.mu.Unlock()
		return
	}
	n.role = RoleFollower
	if n.leaderID != "" && n.leaderID != hello.LeaderID {
		n.lastFailover = time.Now()
	}
	n.leaderID = hello.LeaderID
	n.leaderHTTP = hello.HTTPAddr
	n.leaderSeen = time.Now()
	n.commit = hello.Commit
	s := &session{
		conn:     conn,
		leaderID: hello.LeaderID,
		ackKick:  make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	prev := n.cur
	n.cur = s
	reply := stateMsg{Term: n.term, LastLSN: n.lastLSN, AppendTerm: n.appendTerm}
	n.mu.Unlock()
	if prev != nil {
		prev.conn.Close()
	}
	if err := sendJSON(conn, msgState, reply); err != nil {
		return
	}

	// The acker is the connection's only writer from here on: it waits for
	// local durability and reports the match LSN.
	n.wg.Add(1)
	go n.sessionAcker(s)
	defer func() {
		close(s.done)
		n.mu.Lock()
		if n.cur == s {
			n.cur = nil
		}
		n.mu.Unlock()
	}()

	br := bufio.NewReader(conn)
	for {
		typ, payload, nbuf, err := frame.Read(br, buf, msgMax)
		if err != nil {
			return
		}
		buf = nbuf
		switch typ {
		case msgSnapshot:
			if err := n.installSnapshot(s, payload); err != nil {
				n.logf("replicate: %s: snapshot install from %s: %v", n.cfg.NodeID, s.leaderID, err)
				return
			}
			buf = nil // grown to the image; entries need a small one
			kick(s.ackKick)
		case msgEntry:
			if err := n.applyEntry(s, payload); err != nil {
				n.logf("replicate: %s: entry from %s: %v", n.cfg.NodeID, s.leaderID, err)
				return
			}
			kick(s.ackKick)
		case msgHeartbeat:
			var hb hbMsg
			if err := decodeJSON(payload, &hb); err != nil {
				return
			}
			n.mu.Lock()
			if hb.Term >= n.term {
				n.leaderSeen = time.Now()
				if hb.Commit > n.commit {
					n.commit = hb.Commit
				}
			}
			n.mu.Unlock()
			kick(s.ackKick)
		default:
			n.logf("replicate: %s: unexpected frame type %d from %s", n.cfg.NodeID, typ, s.leaderID)
			return
		}
	}
}

// installSnapshot swaps the follower's entire journal for the leader's
// snapshot image: close, wipe, install, reopen, rebuild the standby — the
// same recovery code a lone daemon runs at boot, so the post-install state
// is exactly what a restart would see.
func (n *Node) installSnapshot(s *session, image []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cur != s || n.jnl == nil {
		return errors.New("session superseded")
	}
	if err := n.jnl.Close(); err != nil {
		n.jnl = nil
		return fmt.Errorf("closing journal: %w", err)
	}
	n.jnl = nil
	lsn, err := journal.InstallSnapshot(n.cfg.Dir, image)
	if err != nil {
		return err
	}
	jnl, rec, err := n.cfg.openJournal()
	if err != nil {
		return fmt.Errorf("reopening after install: %w", err)
	}
	if err := n.cb.OnFollow(rec); err != nil {
		err = errors.Join(fmt.Errorf("rebuilding the standby: %w", err), jnl.Close())
		n.failLocked(err)
		return err
	}
	n.jnl = jnl
	n.lastLSN = rec.LastLSN
	n.leaderSeen = time.Now()
	if lsn != rec.LastLSN {
		return fmt.Errorf("installed snapshot at %d but recovered LSN %d", lsn, rec.LastLSN)
	}
	n.logf("replicate: %s: installed snapshot at LSN %d from %s", n.cfg.NodeID, lsn, s.leaderID)
	return nil
}

// applyEntry applies one replicated record to the standby kept ready for
// promotion, then appends it to the local journal: an entry the standby
// refuses never reaches the disk, so it cannot break the next recovery.
// The first entry of a new term persists that term before the standby
// sees it (rewriting TERM is idempotent, so a retried entry may write it
// again), which leaves the append as the only step after the standby took
// the entry. A failed or misnumbered append is fatal: the standby then
// holds a record the log lacks, so the node must never promote it.
func (n *Node) applyEntry(s *session, payload []byte) error {
	term, lsn, rec, err := decodeEntry(payload)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cur != s || n.jnl == nil {
		return errors.New("session superseded")
	}
	if term < n.term {
		return fmt.Errorf("entry from stale term %d (at %d)", term, n.term)
	}
	if lsn != n.lastLSN+1 {
		return fmt.Errorf("entry LSN %d, expected %d", lsn, n.lastLSN+1)
	}
	if term != n.appendTerm {
		// First entry of a new leadership: persist the log's term marker
		// (it changes once per term, not per record).
		if err := saveTermState(n.cfg.Dir, n.term, n.votedFor, term); err != nil {
			return fmt.Errorf("persisting append term: %w", err)
		}
		n.appendTerm = term
	}
	if err := n.cb.OnEntry(lsn, &rec); err != nil {
		return fmt.Errorf("standby refused entry %d: %w", lsn, err)
	}
	got, err := n.jnl.Append(&rec)
	if err == nil && got != lsn {
		err = fmt.Errorf("journal assigned LSN %d", got)
	}
	if err != nil {
		err = fmt.Errorf("appending entry %d the standby took: %w", lsn, err)
		n.failLocked(err)
		return err
	}
	n.lastLSN = lsn
	n.leaderSeen = time.Now()
	return nil
}

// sessionAcker reports the follower's durable LSN to the leader: after
// every batch of entries (or a heartbeat), it waits for the local journal
// to reach the newest LSN and sends one ack — group commit on the journal
// side coalesces the fsyncs, this loop coalesces the acks.
func (n *Node) sessionAcker(s *session) {
	defer n.wg.Done()
	bw := bufio.NewWriter(s.conn)
	var acked uint64
	for {
		select {
		case <-s.done:
			return
		case <-n.stop:
			return
		case <-s.ackKick:
		}
		n.mu.Lock()
		jnl := n.jnl
		target := n.lastLSN
		ok := n.cur == s
		n.mu.Unlock()
		if !ok {
			return
		}
		if jnl != nil && target > 0 {
			if err := jnl.WaitDurable(target); err != nil {
				n.logf("replicate: %s: ack durability: %v", n.cfg.NodeID, err)
				s.conn.Close()
				return
			}
		}
		if target < acked {
			continue
		}
		acked = target
		if err := sendJSON(bw, msgAck, ackMsg{LSN: target}); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}
