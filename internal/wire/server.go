package wire

// The server side: an accept loop handing each persistent connection to a
// session obtained from the Handler (the dispatch plane's seam), and a
// per-connection read loop that executes every buffered frame before
// waiting once for durability and answering the whole burst.

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"botgrid/internal/frame"
)

// Pending is a durability obligation produced by an operation: record LSN
// on scheduler shard Shard must be durable before the operation may be
// acknowledged. The zero Pending (LSN 0) means no obligation — LSN 0 is
// never a real record, journal LSNs start at 1.
type Pending struct {
	Shard int
	LSN   uint64
}

// Handler plugs the dispatch plane into the wire server.
type Handler interface {
	// NewSession opens per-connection state. Sessions are used from a
	// single goroutine at a time.
	NewSession() Session
}

// Session executes one connection's operations. Submit and Report return
// the durability obligation their acknowledgement must wait on; the
// server coalesces every obligation of a frame burst into one Flush call
// before any response leaves, so a single group-committed fsync
// acknowledges the whole batch. In-band failures (bag validation,
// capacity) are returned as errors from Submit and Fetch and travel to
// the client inside the response; Flush errors are connection-fatal.
type Session interface {
	Submit(granularity float64, works []float64) (SubmitResult, Pending, error)
	Fetch(worker []byte, power float64) (FetchResult, error)
	Report(worker []byte, replica uint64, failed bool) (Ack, Pending)
	Heartbeat(worker []byte, replica uint64) Ack
	// Flush blocks until every listed obligation is durable.
	Flush(pending []Pending) error
	// Close releases the session (the connection is gone).
	Close()
}

// Server serves the binary dispatch protocol on persistent TCP
// connections.
type Server struct {
	h Handler

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer returns a server dispatching through h.
func NewServer(h Handler) *Server {
	return &Server{h: h, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close it returns ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// ErrServerClosed is returned by Serve after Close, mirroring
// http.ErrServerClosed.
var ErrServerClosed = errors.New("wire: server closed")

// Close stops accepting and tears down every open connection. In-flight
// operations finish server-side (their effects are journaled); their
// responses are lost with the connection, which clients treat like any
// other drop — fetch is idempotent and unacked reports are retried.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

// connState is one connection's reusable buffers: staged response frames,
// the payload under construction, the decoded works vector, and the
// burst's accumulated durability obligations.
type connState struct {
	out     []byte
	scratch []byte
	works   []float64
	pend    []Pending
}

// note records an operation's durability obligation, if any.
func (cs *connState) note(p Pending) {
	if p.LSN != 0 {
		cs.pend = append(cs.pend, p)
	}
}

// outHighWater forces a mid-burst flush once this many response bytes are
// staged, bounding per-connection memory under pipelined floods.
const outHighWater = 1 << 20

func (s *Server) serveConn(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	sess := s.h.NewSession()
	defer sess.Close()

	br := bufio.NewReaderSize(c, connBufSize)
	bw := bufio.NewWriterSize(c, connBufSize)

	// Handshake: the very first frame must be hello with the right magic,
	// so a stray client speaking another protocol is refused immediately.
	typ, payload, buf, err := frame.Read(br, nil, msgMax)
	if err != nil || typ != msgHello {
		return
	}
	if len(payload) != len(protoMagic)+1 || !bytes.Equal(payload[:len(protoMagic)], []byte(protoMagic)) {
		return
	}
	if v := payload[len(protoMagic)]; v != protoVersion {
		sendError(bw, fmt.Errorf("wire: protocol version %d not supported (server speaks %d)", v, protoVersion))
		return
	}
	if err := frame.Write(bw, msgHelloResp, []byte{protoVersion}); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	cs := &connState{}
	for {
		typ, payload, buf, err = frame.Read(br, buf, msgMax)
		if err != nil {
			return // io.EOF: clean close; anything else: drop the conn
		}
		if err := s.handleFrame(sess, cs, typ, payload); err != nil {
			sendError(bw, err)
			return
		}
		// Coalesce the burst: execute every frame already buffered before
		// paying for durability and a write syscall.
		if br.Buffered() > 0 && len(cs.out) < outHighWater {
			continue
		}
		if err := sess.Flush(cs.pend); err != nil {
			// Durability is gone (journal error): the staged acks may not be
			// sent. Tear the connection down; clients re-run unacked work.
			sendError(bw, err)
			return
		}
		cs.pend = cs.pend[:0]
		if _, err := bw.Write(cs.out); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		cs.out = cs.out[:0]
	}
}

// handleFrame decodes and executes one request frame — always a batch —
// staging its response frame in cs.out. A returned error is
// connection-fatal (corrupt or out-of-protocol frame) and wraps
// ErrBadFrame, and for a payload the decoder refused, the internal/frame
// error that says why.
func (s *Server) handleFrame(sess Session, cs *connState, typ byte, payload []byte) error {
	if typ != msgBatch {
		return fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, typ)
	}
	r := frame.NewReader(payload)
	n := r.Int() // 0 when unreadable: no op runs, and Done reports why
	if n > maxBatchOps {
		return badPayload(frame.ErrRange)
	}
	cs.scratch = binary.AppendUvarint(cs.scratch[:0], uint64(n))
	for i := 0; i < n; i++ {
		var err error
		switch op := r.U8(); op {
		case opSubmit:
			err = s.execSubmit(sess, cs, &r)
		case opFetch:
			err = s.execFetch(sess, cs, &r)
		case opReport:
			err = s.execReport(sess, cs, &r)
		case opHeartbeat:
			err = s.execHeartbeat(sess, cs, &r)
		default:
			err = cmp.Or(r.Err(), frame.ErrRange)
		}
		if err != nil {
			return badPayload(err)
		}
	}
	if err := r.Done(); err != nil {
		return badPayload(err)
	}
	cs.out = frame.AppendTyped(cs.out, msgBatchResp, cs.scratch)
	return nil
}

// badPayload wraps a payload decode failure as ErrBadFrame.
func badPayload(err error) error { return fmt.Errorf("%w: %w", ErrBadFrame, err) }

// execSubmit decodes one submit op from r, executes it and appends its
// response payload to cs.scratch.
func (s *Server) execSubmit(sess Session, cs *connState, r *frame.Reader) error {
	gran, works, err := decodeSubmit(r, cs.works[:0])
	if err != nil {
		return err
	}
	cs.works = works
	res, p, serr := sess.Submit(gran, works)
	cs.note(p)
	cs.scratch = appendSubmitResp(cs.scratch, res, errString(serr))
	return nil
}

func (s *Server) execFetch(sess Session, cs *connState, r *frame.Reader) error {
	worker, power, err := decodeFetch(r)
	if err != nil {
		return err
	}
	res, ferr := sess.Fetch(worker, power)
	cs.scratch = appendFetchResp(cs.scratch, res, errString(ferr))
	return nil
}

func (s *Server) execReport(sess Session, cs *connState, r *frame.Reader) error {
	worker, replica, failed, err := decodeReport(r)
	if err != nil {
		return err
	}
	ack, p := sess.Report(worker, replica, failed)
	cs.note(p)
	cs.scratch = appendAckResp(cs.scratch, ack)
	return nil
}

func (s *Server) execHeartbeat(sess Session, cs *connState, r *frame.Reader) error {
	worker, replica, err := decodeHeartbeat(r)
	if err != nil {
		return err
	}
	cs.scratch = appendAckResp(cs.scratch, sess.Heartbeat(worker, replica))
	return nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sendError best-effort ships a fatal error to the peer before the
// connection closes.
func sendError(bw flusher, err error) {
	if werr := frame.Write(bw, msgError, []byte(err.Error())); werr == nil {
		//botlint:ignore errcheck -- best-effort delivery: the connection is being torn down for err already
		bw.Flush()
	}
}

type flusher interface {
	Write([]byte) (int, error)
	Flush() error
}

// connBufSize sizes each connection's read and write buffers: large
// enough that a typical batch round-trip is one syscall each way.
const connBufSize = 64 << 10
