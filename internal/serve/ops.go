package serve

// The dispatch-operation layer: the four worker-protocol operations plus
// flush, written once and spoken by both transports. Each operation owns
// everything between a decoded request and an encodable answer —
// validation, bag striping, worker routing, decision timing, the routing
// pin and the durability obligation — so the HTTP handlers (serve.go) and
// the wire session (wire.go) only decode, delegate and encode, and the
// scheduler-side path of a dispatch is the same code under either one.
// Answers are internal/wire's transport-neutral values: an in-band failure
// is an error (submit, fetch) or wire.AckUnknown (report, heartbeat).

import (
	"errors"
	"fmt"
	"time"

	"botgrid/internal/frame"
	"botgrid/internal/wire"
)

// In-band errors; HTTP turns the submit ones and the worker-ID ones into
// 400 (any other fetch failure into 503), the wire protocol carries the
// text inside the response.
var (
	errEmptyBag    = errors.New("empty bag")
	errBadWork     = errors.New("task work must be positive")
	errEmptyWorker = errors.New("empty worker id")
	errLongWorker  = fmt.Errorf("worker id longer than %d bytes", frame.MaxWorkerID)
)

// routeWorker picks the shard serving worker id: the pinned shard while
// one exists, else the ring target. On a fetch (allowMove) a worker whose
// ring target drifted from its pin is handed off — but only when it holds
// no replica on the old shard, so in-flight work always completes where
// it started (the lease protocol needs no cross-shard state).
func (s *Server) routeWorker(id string, allowMove bool) *shard {
	target := s.ring.Load().Lookup(id)
	v, ok := s.pins.Load(id)
	if !ok {
		return s.shards[target]
	}
	cur := v.(int)
	if cur == target || !allowMove {
		return s.shards[cur]
	}
	if s.shards[cur].releaseIfIdle(id) {
		s.pins.Store(id, target)
		s.moves.Add(1)
		return s.shards[target]
	}
	return s.shards[cur]
}

// submit validates and enters a bag. Bags stripe round-robin: submission
// k lands on shard k mod n, which issues local ID k div n — dense global
// IDs, deterministic placement. An accepted submission must survive a
// crash: the caller flushes the returned obligation before acknowledging.
func (s *Server) submit(granularity float64, works []float64) (wire.SubmitResult, wire.Pending, error) {
	if len(works) == 0 {
		return wire.SubmitResult{}, wire.Pending{}, errEmptyBag
	}
	for _, w := range works {
		if w <= 0 {
			return wire.SubmitResult{}, wire.Pending{}, errBadWork
		}
	}
	sh := s.shards[int(s.nextSubmit.Add(1)-1)%len(s.shards)]
	start := time.Now()
	res, wait := sh.submit(granularity, works)
	sh.decLat.Observe(time.Since(start))
	return res, wait, nil
}

// fetch serves one poll of worker id (handoff to its ring target allowed)
// and pins the worker to the shard that registered it. Nothing retains id
// when the fetch fails. An ID the journal could not replay is refused
// before anything sees it.
func (s *Server) fetch(id string, power float64) (wire.FetchResult, error) {
	if id == "" {
		return wire.FetchResult{}, errEmptyWorker
	}
	if len(id) > frame.MaxWorkerID {
		return wire.FetchResult{}, errLongWorker
	}
	sh := s.routeWorker(id, true)
	start := time.Now()
	res, err := sh.fetch(id, power)
	sh.decLat.Observe(time.Since(start))
	if err != nil {
		return wire.FetchResult{}, err
	}
	if v, ok := s.pins.Load(id); !ok || v.(int) != sh.idx {
		s.pins.Store(id, sh.idx)
	}
	return res, nil
}

// report applies worker id's done/failed report where its replica runs.
func (s *Server) report(id string, replica uint64, failed bool) (wire.Ack, wire.Pending) {
	sh := s.routeWorker(id, false)
	start := time.Now()
	ack, wait := sh.report(id, replica, failed)
	sh.decLat.Observe(time.Since(start))
	return ack, wait
}

// heartbeat renews worker id's lease mid-computation.
func (s *Server) heartbeat(id string, replica uint64) wire.Ack {
	return s.routeWorker(id, false).heartbeat(id, replica)
}

// flush blocks until every obligation is durable: one wait per touched
// shard, on the largest LSN owed there. WaitDurable rides the journal's
// group commit, so a whole burst of submits and reports is typically
// acknowledged by a single fsync. The zero Pending owes nothing.
func (s *Server) flush(pending []wire.Pending) error {
	for i, sh := range s.shards {
		var lsn uint64
		for _, p := range pending {
			if p.Shard == i && p.LSN > lsn {
				lsn = p.LSN
			}
		}
		if lsn == 0 {
			continue
		}
		if err := sh.waitDurable(lsn); err != nil {
			return err
		}
	}
	return nil
}
