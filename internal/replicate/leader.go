package replicate

// The leader's side of replication: Replica wraps the node's journal as
// the cluster's record log. Appends go to the local journal and into an
// in-memory wire tail streamed to every follower; WaitDurable blocks until
// a quorum of cluster members (the leader's own fsync included) holds the
// record — the serve layer acks submits and done-reports only after that.
//
// The tail invariant: tail[0] has LSN snapLSN+1, so "newest snapshot file
// + tail" is always a complete, gap-free reconstruction of the log. A new
// or reconnecting follower session is sent that file and replays the tail
// from there; WriteSnapshot advances the anchor and prunes the tail in one
// step. A follower whose sender is pruned past, or whose file is pruned
// before it is read, simply reconnects and installs the newer snapshot —
// catch-up and bootstrap are the same path.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"botgrid/internal/frame"
	"botgrid/internal/journal"
)

// ErrDeposed reports that the replica lost leadership: a peer announced a
// higher term. Requests waiting on durability fail with it and the serve
// layer surfaces a 5xx; the client retries against the new leader.
var ErrDeposed = errors.New("replicate: leadership lost")

// Replica is the leader's replicated record log. It implements the serve
// layer's Log interface: Append/WaitDurable/Metrics/WriteSnapshot/
// SnapshotDue/Close, with WaitDurable meaning quorum-durable.
type Replica struct {
	nodeID   string
	term     uint64
	jnl      *journal.Journal
	peers    []Peer // followers only
	clusterN int
	hb       time.Duration
	httpAddr string
	logf     func(string, ...any)

	mu   sync.Mutex
	cond *sync.Cond // broadcast when commit advances or the replica dies

	// snapLSN is the newest snapshot file's LSN; tail holds the framed
	// wire entries for LSNs snapLSN+1..lastLSN.
	snapLSN  uint64   //botlint:guarded-by mu
	tail     [][]byte //botlint:guarded-by mu
	tailBase uint64   //botlint:guarded-by mu
	lastLSN  uint64   //botlint:guarded-by mu

	// localDur is the newest LSN the local journal reports durable.
	localDur uint64 //botlint:guarded-by mu
	// commit is the newest quorum-durable LSN.
	commit uint64 //botlint:guarded-by mu
	// deposed is ErrDeposed (or a fatal log error); sticky.
	deposed error //botlint:guarded-by mu
	closed  bool  //botlint:guarded-by mu

	followers map[string]*followerState

	localKick chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
}

// followerState is the leader's book-keeping for one follower.
type followerState struct {
	peer  Peer
	kick  chan struct{}
	match uint64 //botlint:guarded-by mu
	// connected reports whether the follower's stream is up.
	connected bool //botlint:guarded-by mu
}

// newReplica builds the leader log around an already-open journal whose
// newest record is lastLSN. The promotion snapshot written through
// WriteSnapshot anchors the tail. Call start to launch the streams.
func newReplica(cfg Config, term uint64, jnl *journal.Journal, lastLSN uint64) *Replica {
	cfg = cfg.withDefaults()
	_, others, _ := cfg.validate()
	r := &Replica{
		nodeID:    cfg.NodeID,
		term:      term,
		jnl:       jnl,
		peers:     others,
		clusterN:  len(cfg.Peers),
		hb:        cfg.Heartbeat,
		httpAddr:  cfg.AdvertiseHTTP,
		logf:      cfg.Logf,
		snapLSN:   lastLSN,
		tailBase:  lastLSN + 1,
		lastLSN:   lastLSN,
		localDur:  lastLSN,
		commit:    lastLSN,
		followers: make(map[string]*followerState),
		localKick: make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, p := range others {
		r.followers[p.ID] = &followerState{peer: p, kick: make(chan struct{}, 1)}
	}
	return r
}

// start launches the local durability tracker and one stream per follower.
func (r *Replica) start() {
	r.wg.Add(1)
	go r.localAcker()
	for _, fs := range r.followers {
		r.wg.Add(1)
		go r.followerLoop(fs)
	}
}

// Term returns the leadership term of this replica.
func (r *Replica) Term() uint64 { return r.term }

// Append appends one record to the local journal and queues it for every
// follower stream, returning its LSN. Serialized internally so the wire
// tail and the journal agree on LSN order.
func (r *Replica) Append(rec *journal.Record) (uint64, error) {
	r.mu.Lock()
	if r.deposed != nil {
		err := r.deposed
		r.mu.Unlock()
		return 0, err
	}
	if r.closed {
		r.mu.Unlock()
		return 0, journal.ErrClosed
	}
	lsn, err := r.jnl.Append(rec)
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	// 64 bytes hold the frame of any record but one with a long work list.
	r.tail = append(r.tail, appendEntryFrame(make([]byte, 0, 64), r.term, lsn, rec))
	r.lastLSN = lsn
	r.mu.Unlock()
	kick(r.localKick)
	for _, fs := range r.followers {
		kick(fs.kick)
	}
	return lsn, nil
}

// kick delivers a non-blocking wake-up.
func kick(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// WaitDurable blocks until record lsn is durable on a quorum of cluster
// members, or the replica is deposed or closed.
func (r *Replica) WaitDurable(lsn uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.commit < lsn && r.deposed == nil && !r.closed {
		r.cond.Wait()
	}
	if r.deposed != nil {
		return r.deposed
	}
	if r.commit < lsn {
		return journal.ErrClosed
	}
	return nil
}

// CommitLSN returns the newest quorum-durable LSN.
func (r *Replica) CommitLSN() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commit
}

// recomputeCommit recalculates the quorum LSN from the leader's own durable
// LSN plus every follower's match. Must be called with mu held.
//
//botlint:holds mu
func (r *Replica) recomputeCommit() {
	lsns := make([]uint64, 0, r.clusterN)
	lsns = append(lsns, r.localDur)
	for _, fs := range r.followers {
		lsns = append(lsns, fs.match)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	q := quorum(r.clusterN)
	if q > len(lsns) {
		return // cannot happen: every member is represented
	}
	if c := lsns[q-1]; c > r.commit {
		r.commit = c
		r.cond.Broadcast()
	}
}

// localAcker tracks the local journal's durable LSN: the leader itself is
// one of the quorum's members.
func (r *Replica) localAcker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		target := r.lastLSN
		have := r.localDur
		r.mu.Unlock()
		if target == have {
			select {
			case <-r.stop:
				return
			case <-r.localKick:
				continue
			}
		}
		err := r.jnl.WaitDurable(target)
		r.mu.Lock()
		if err != nil {
			r.failLocked(err)
			r.mu.Unlock()
			return
		}
		r.localDur = target
		r.recomputeCommit()
		r.mu.Unlock()
	}
}

// failLocked marks the replica dead with err and releases every waiter.
// Must be called with mu held.
//
//botlint:holds mu
func (r *Replica) failLocked(err error) {
	if r.deposed == nil {
		r.deposed = err
	}
	r.cond.Broadcast()
}

// depose marks the replica as having lost leadership; all durability
// waiters fail with ErrDeposed. Idempotent.
func (r *Replica) depose() {
	r.mu.Lock()
	r.failLocked(ErrDeposed)
	r.mu.Unlock()
}

// Deposed reports whether the replica lost leadership or hit a fatal error.
func (r *Replica) Deposed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deposed != nil
}

// WriteSnapshot persists st as the snapshot covering lsn through the
// journal, which keeps any failure for Metrics.Err, and prunes the wire
// tail up to lsn — the tail invariant tailBase == snapLSN+1 holds across
// the call, and the file is what follower sessions ship from then on.
// Snapshot calls are serialized by the caller (the server's periodic step,
// or promotion before start).
func (r *Replica) WriteSnapshot(lsn uint64, st *journal.State) error {
	if err := r.jnl.WriteSnapshot(lsn, st); err != nil {
		return err
	}
	r.mu.Lock()
	if lsn >= r.snapLSN {
		r.snapLSN = lsn
		for len(r.tail) > 0 && r.tailBase <= lsn {
			r.tail = r.tail[1:]
			r.tailBase++
		}
	}
	r.mu.Unlock()
	return nil
}

// SnapshotDue reports whether the journal's Young-formula cadence calls for
// a snapshot.
func (r *Replica) SnapshotDue() bool { return r.jnl.SnapshotDue() }

// Metrics returns the underlying journal's counters.
func (r *Replica) Metrics() journal.Metrics { return r.jnl.Metrics() }

// Close stops every follower stream and closes the underlying journal.
// Safe to call twice.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return nil
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
	return r.jnl.Close()
}

// Status reports the leader's replication state.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		NodeID:     r.nodeID,
		Role:       RoleLeader.String(),
		Term:       r.term,
		LeaderID:   r.nodeID,
		LeaderHTTP: r.httpAddr,
		CommitLSN:  r.commit,
		LastLSN:    r.lastLSN,
	}
	for _, p := range r.peers {
		fs := r.followers[p.ID]
		st.Followers = append(st.Followers, FollowerStatus{
			ID: p.ID, MatchLSN: fs.match, Connected: fs.connected,
		})
	}
	sort.Slice(st.Followers, func(i, j int) bool { return st.Followers[i].ID < st.Followers[j].ID })
	return st
}

// followerLoop owns one follower: dial, handshake, install the snapshot,
// stream the tail, heartbeat, and read acks — reconnecting with backoff on
// any error. Exits when the replica stops.
func (r *Replica) followerLoop(fs *followerState) {
	defer r.wg.Done()
	backoff := 20 * time.Millisecond
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		err := r.runSession(fs)
		r.mu.Lock()
		fs.connected = false
		dead := r.closed || r.deposed != nil
		r.mu.Unlock()
		if dead {
			return
		}
		if err != nil && r.logf != nil {
			r.logf("replicate: %s: session with %s: %v", r.nodeID, fs.peer.ID, err)
		}
		select {
		case <-r.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// runSession runs one leader→follower session to completion (error or
// replica shutdown).
func (r *Replica) runSession(fs *followerState) error {
	conn, err := net.DialTimeout("tcp", fs.peer.Addr, r.hb*4)
	if err != nil {
		return err
	}
	defer conn.Close()
	stopDone := make(chan struct{})
	defer close(stopDone)
	go func() {
		// Tear the connection down when the replica stops so blocked reads
		// and writes return promptly.
		select {
		case <-r.stop:
			conn.Close()
		case <-stopDone:
		}
	}()

	bw := bufio.NewWriter(conn)
	if err := sendJSON(bw, msgHello, helloMsg{
		LeaderID: r.nodeID, Term: r.term, HTTPAddr: r.httpAddr, Commit: r.CommitLSN(),
	}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Now().Add(r.hb * 8)); err != nil {
		return err
	}
	typ, payload, buf, err := frame.Read(conn, nil, msgMax)
	if err != nil {
		return err
	}
	switch typ {
	case msgReject:
		var rej rejectMsg
		if err := decodeJSON(payload, &rej); err != nil {
			return err
		}
		r.depose()
		return fmt.Errorf("deposed by %s at term %d", fs.peer.ID, rej.Term)
	case msgState:
		var st stateMsg
		if err := decodeJSON(payload, &st); err != nil {
			return err
		}
		if st.Term > r.term {
			r.depose()
			return fmt.Errorf("deposed: %s is at term %d", fs.peer.ID, st.Term)
		}
	default:
		return badFrame("handshake answered with type %d", typ)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}

	// Catch-up is unconditional: ship the newest snapshot file, stream from
	// its anchor. The follower wipes whatever it had — including a
	// diverged, never-acked tail from a dead leadership — and adopts this
	// history. A file pruned meanwhile fails the read; the reconnect ships
	// the newer one.
	r.mu.Lock()
	next := r.snapLSN + 1
	r.mu.Unlock()
	snap, err := r.jnl.ReadSnapshotFile(next - 1)
	if err != nil {
		return err
	}
	if err := frame.Write(bw, msgSnapshot, snap); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Reader side: acks advance the follower's match index; a reject
	// deposes us.
	errc := make(chan error, 1)
	go func() { errc <- r.readAcks(conn, fs, buf) }()

	r.mu.Lock()
	fs.connected = true
	r.mu.Unlock()

	tick := time.NewTicker(r.hb)
	defer tick.Stop()
	for {
		r.mu.Lock()
		var batch [][]byte
		if next >= r.tailBase {
			batch = r.tail[next-r.tailBase:]
		} else if next > r.snapLSN {
			// Unreachable by construction (tailBase == snapLSN+1), but a
			// gap here must force a re-install rather than a silent skip.
			r.mu.Unlock()
			return fmt.Errorf("tail gap: next %d below base %d", next, r.tailBase)
		} else {
			// The tail was pruned past this session's cursor by a snapshot;
			// reconnect to install the newer snapshot.
			r.mu.Unlock()
			return fmt.Errorf("snapshot advanced past cursor %d; re-syncing", next)
		}
		if r.deposed != nil || r.closed {
			r.mu.Unlock()
			return nil
		}
		commit := r.commit
		r.mu.Unlock()

		if len(batch) > 0 {
			for _, entry := range batch {
				if _, err := bw.Write(entry); err != nil {
					return err
				}
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			next += uint64(len(batch))
			continue
		}
		select {
		case <-r.stop:
			return nil
		case err := <-errc:
			return err
		case <-fs.kick:
		case <-tick.C:
			if err := sendJSON(bw, msgHeartbeat, hbMsg{Term: r.term, Commit: commit}); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}

// readAcks consumes the follower's side of a session: acks move its match
// index (and possibly the commit LSN), a reject deposes this leader.
func (r *Replica) readAcks(conn net.Conn, fs *followerState, buf []byte) error {
	br := bufio.NewReader(conn)
	for {
		typ, payload, nbuf, err := frame.Read(br, buf, msgMax)
		if err != nil {
			return err
		}
		buf = nbuf
		switch typ {
		case msgAck:
			var ack ackMsg
			if err := decodeJSON(payload, &ack); err != nil {
				return err
			}
			r.mu.Lock()
			if ack.LSN > fs.match {
				fs.match = ack.LSN
				r.recomputeCommit()
			}
			r.mu.Unlock()
		case msgReject:
			var rej rejectMsg
			if err := decodeJSON(payload, &rej); err != nil {
				return err
			}
			r.depose()
			return fmt.Errorf("deposed by %s at term %d", fs.peer.ID, rej.Term)
		default:
			return badFrame("unexpected type %d from follower", typ)
		}
	}
}
