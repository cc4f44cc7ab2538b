package checkpoint

import (
	"fmt"

	"botgrid/internal/des"
)

// Transfer is one in-flight or queued checkpoint transfer. Handles are
// cancellable because the requesting replica may be killed (machine
// failure, sibling completion) while the transfer waits or runs.
//
// A handle goes stale once the transfer completes or is cancelled: the
// server recycles the struct for later transfers, so callers must drop
// stale handles rather than call Cancel on them (the scheduler nils its
// reference at exactly those points). This mirrors the des.EventRef
// contract, minus the generation stamp: the single-owner discipline of
// the scheduler makes the stamp unnecessary.
type Transfer struct {
	srv       *Server
	duration  float64
	done      func(arg any)
	arg       any
	ev        des.EventRef
	started   bool
	cancelled bool
	finished  bool
}

// Pending reports whether the transfer is queued or running.
func (t *Transfer) Pending() bool { return t != nil && !t.cancelled && !t.finished }

// Started reports whether the transfer has begun moving data (it may have
// finished since).
func (t *Transfer) Started() bool { return t != nil && t.started }

// StartTransfer requests a transfer of the given duration on the server,
// invoking done(arg) when it completes. With Capacity == 0 (the paper's
// no-contention idealization) the transfer begins immediately; otherwise
// at most Capacity transfers run concurrently and excess requests wait in
// FIFO order. The returned handle cancels the transfer if needed.
//
// The (done, arg) pair instead of a closure keeps the hot path
// allocation-light: callers pass a long-lived bound method plus a pointer
// argument, so only the Transfer itself is allocated.
func (s *Server) StartTransfer(e *des.Engine, duration float64, done func(arg any), arg any) *Transfer {
	if duration < 0 {
		panic(fmt.Sprintf("checkpoint: negative transfer duration %v", duration))
	}
	var t *Transfer
	if n := len(s.pool); n > 0 {
		t = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		*t = Transfer{srv: s, duration: duration, done: done, arg: arg}
	} else {
		t = &Transfer{srv: s, duration: duration, done: done, arg: arg}
	}
	if s.cfg.Capacity <= 0 || s.active < s.cfg.Capacity {
		t.begin(e)
	} else {
		s.queue = append(s.queue, t)
	}
	return t
}

// transferComplete is the shared event callback for every transfer, so
// scheduling one costs no closure allocation.
func transferComplete(e *des.Engine, arg any) {
	t := arg.(*Transfer)
	t.finished = true
	t.srv.active--
	t.srv.drain(e)
	t.done(t.arg)
	t.srv.recycle(t)
}

// recycle returns a finished or cancelled transfer's storage to the pool.
// The caller guarantees no live handle remains (see Transfer).
func (s *Server) recycle(t *Transfer) {
	t.done = nil
	t.arg = nil
	s.pool = append(s.pool, t)
}

func (t *Transfer) begin(e *des.Engine) {
	t.started = true
	t.srv.active++
	t.ev = e.ScheduleFunc(t.duration, transferComplete, t)
}

// Cancel aborts a queued or running transfer; done is never invoked.
// Cancelling a finished or already-cancelled transfer is a no-op.
func (t *Transfer) Cancel(e *des.Engine) {
	if t == nil || t.cancelled || t.finished {
		return
	}
	t.cancelled = true
	if t.started {
		e.Cancel(t.ev)
		t.srv.active--
		t.srv.drain(e)
		t.srv.recycle(t)
	}
	// Queued entries are skipped lazily (and recycled) by drain.
}

// drain starts queued transfers while capacity is available.
func (s *Server) drain(e *des.Engine) {
	for (s.cfg.Capacity <= 0 || s.active < s.cfg.Capacity) && len(s.queue) > 0 {
		t := s.queue[0]
		s.queue = s.queue[1:]
		if t.cancelled {
			s.recycle(t)
			continue
		}
		t.begin(e)
	}
}

// Active returns the number of transfers currently moving data.
func (s *Server) Active() int { return s.active }

// Queued returns the number of transfers waiting for a slot.
func (s *Server) Queued() int {
	n := 0
	for _, t := range s.queue {
		if !t.cancelled {
			n++
		}
	}
	return n
}
