package serve

// The binary transport's backend: WireHandler adapts the Server to
// internal/wire's Handler/Session seam. A session is per-connection
// worker-ID interning in front of the operation layer (ops.go) — the same
// five functions the HTTP handlers call, so both transports produce
// identical scheduler state from identical traffic (wire_diff_test.go
// holds them to it).

import "botgrid/internal/wire"

// WireHandler returns the binary transport's hook into this server: pass
// it to wire.NewServer to serve the binary protocol next to HTTP.
func (s *Server) WireHandler() wire.Handler { return wireHandler{s} }

type wireHandler struct{ s *Server }

func (h wireHandler) NewSession() wire.Session {
	return &wireSession{s: h.s, intern: make(map[string]string)}
}

// wireSession is one connection's state. It is used from a single
// goroutine (the connection's read loop), so the intern map needs no
// lock.
type wireSession struct {
	s *Server
	// intern maps decoded worker IDs (views into the connection's read
	// buffer) to the stable strings of workers this connection has
	// registered. The map lookup with a string(bytes) key compiles to an
	// allocation-free probe, so a known worker costs nothing. Only a
	// successful Fetch adds an entry, so the map is bounded by the
	// server's worker table however many IDs a peer cycles through.
	intern map[string]string
}

// id resolves a decoded worker ID: the interned string of a worker this
// session registered, else a fresh copy nothing here retains.
//
//botlint:hotpath
func (ws *wireSession) id(worker []byte) (id string, known bool) {
	if id, ok := ws.intern[string(worker)]; ok {
		return id, true
	}
	//botlint:ignore escape -- unknown to this session only: first contact, a reconnected worker before its next fetch, or a refused ID; every call after a successful Fetch is an allocation-free map probe
	return string(worker), false
}

// Submit implements wire.Session.
func (ws *wireSession) Submit(granularity float64, works []float64) (wire.SubmitResult, wire.Pending, error) {
	return ws.s.submit(granularity, works)
}

// Fetch implements wire.Session. A successful fetch registered the worker
// (the shard's table now holds this very string), so it is interned here.
func (ws *wireSession) Fetch(worker []byte, power float64) (wire.FetchResult, error) {
	id, known := ws.id(worker)
	res, err := ws.s.fetch(id, power)
	if err == nil && !known {
		ws.intern[id] = id
	}
	return res, err
}

// Report implements wire.Session.
func (ws *wireSession) Report(worker []byte, replica uint64, failed bool) (wire.Ack, wire.Pending) {
	id, _ := ws.id(worker)
	return ws.s.report(id, replica, failed)
}

// Heartbeat implements wire.Session.
func (ws *wireSession) Heartbeat(worker []byte, replica uint64) wire.Ack {
	id, _ := ws.id(worker)
	return ws.s.heartbeat(id, replica)
}

// Flush implements wire.Session.
func (ws *wireSession) Flush(pending []wire.Pending) error { return ws.s.flush(pending) }

// Close implements wire.Session. Worker registrations outlive their
// connection on purpose — a wire worker that reconnects is the same
// worker, exactly like an HTTP worker between polls — so there is
// nothing to release; silent workers are reaped by lease expiry.
func (ws *wireSession) Close() {}
