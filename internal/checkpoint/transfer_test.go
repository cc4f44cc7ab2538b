package checkpoint

import (
	"testing"

	"botgrid/internal/des"
	"botgrid/internal/rng"
)

func capServer(capacity int) *Server {
	return NewServer(Config{Enabled: true, TransferLo: 100, TransferHi: 100, Capacity: capacity}, rng.New(1))
}

func TestUnlimitedCapacityRunsConcurrently(t *testing.T) {
	s := capServer(0)
	e := des.New()
	var doneAt []float64
	for i := 0; i < 3; i++ {
		s.StartTransfer(e, 100, func(any) { doneAt = append(doneAt, e.Now()) }, nil)
	}
	if s.Active() != 3 {
		t.Fatalf("active = %d, want 3", s.Active())
	}
	e.Run()
	for _, at := range doneAt {
		if at != 100 {
			t.Fatalf("transfer finished at %v, want 100 (no queueing)", at)
		}
	}
}

func TestCapacitySerializesTransfers(t *testing.T) {
	s := capServer(1)
	e := des.New()
	var doneAt []float64
	for i := 0; i < 3; i++ {
		s.StartTransfer(e, 100, func(any) { doneAt = append(doneAt, e.Now()) }, nil)
	}
	if s.Active() != 1 || s.Queued() != 2 {
		t.Fatalf("active/queued = %d/%d, want 1/2", s.Active(), s.Queued())
	}
	e.Run()
	want := []float64{100, 200, 300}
	for i, at := range doneAt {
		if at != want[i] {
			t.Fatalf("transfer %d finished at %v, want %v (FIFO serialization)", i, at, want[i])
		}
	}
}

func TestCapacityTwoPipelines(t *testing.T) {
	s := capServer(2)
	e := des.New()
	var doneAt []float64
	for i := 0; i < 4; i++ {
		s.StartTransfer(e, 100, func(any) { doneAt = append(doneAt, e.Now()) }, nil)
	}
	e.Run()
	want := []float64{100, 100, 200, 200}
	for i, at := range doneAt {
		if at != want[i] {
			t.Fatalf("transfer %d finished at %v, want %v", i, at, want[i])
		}
	}
}

func TestCancelQueuedTransfer(t *testing.T) {
	s := capServer(1)
	e := des.New()
	ran := []int{}
	t0 := s.StartTransfer(e, 100, func(any) { ran = append(ran, 0) }, nil)
	t1 := s.StartTransfer(e, 100, func(any) { ran = append(ran, 1) }, nil)
	t2 := s.StartTransfer(e, 100, func(any) { ran = append(ran, 2) }, nil)
	t1.Cancel(e) // queued, never started
	e.Run()
	if len(ran) != 2 || ran[0] != 0 || ran[1] != 2 {
		t.Fatalf("ran = %v, want [0 2]", ran)
	}
	if t1.Started() || t1.Pending() {
		t.Fatal("cancelled queued transfer should be neither started nor pending")
	}
	_ = t0
	_ = t2
}

func TestCancelRunningTransferPromotesQueue(t *testing.T) {
	s := capServer(1)
	e := des.New()
	var doneAt []float64
	t0 := s.StartTransfer(e, 100, func(any) { doneAt = append(doneAt, e.Now()) }, nil)
	s.StartTransfer(e, 100, func(any) { doneAt = append(doneAt, e.Now()) }, nil)
	e.Schedule(50, func(*des.Engine) { t0.Cancel(e) })
	e.Run()
	// The queued transfer starts at 50 (when the slot frees) and ends 150.
	if len(doneAt) != 1 || doneAt[0] != 150 {
		t.Fatalf("doneAt = %v, want [150]", doneAt)
	}
}

func TestCancelIdempotent(t *testing.T) {
	s := capServer(1)
	e := des.New()
	done := false
	tr := s.StartTransfer(e, 10, func(any) { done = true }, nil)
	tr.Cancel(e)
	tr.Cancel(e) // no-op
	e.Run()
	if done {
		t.Fatal("cancelled transfer completed")
	}
	if s.Active() != 0 {
		t.Fatalf("active = %d after cancel, want 0", s.Active())
	}
	// Cancel after finish is a no-op too.
	done2 := false
	tr2 := s.StartTransfer(e, 10, func(any) { done2 = true }, nil)
	e.Run()
	tr2.Cancel(e)
	if !done2 {
		t.Fatal("transfer should have completed")
	}
	var nilT *Transfer
	nilT.Cancel(e) // nil-safe
	if nilT.Pending() || nilT.Started() {
		t.Fatal("nil transfer misreports state")
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	capServer(1).StartTransfer(des.New(), -1, func(any) {}, nil)
}

// TestResetKeepsPoolOnly resets a server that has finished, running and
// queued transfers: it then reads like a new server of the new config, and
// its next transfer reuses a finished transfer's storage.
func TestResetKeepsPoolOnly(t *testing.T) {
	s := capServer(1)
	e := des.New()
	first := s.StartTransfer(e, 100, func(any) {}, nil)
	for i := 0; i < 2; i++ {
		s.StartTransfer(e, 100, func(any) {}, nil)
	}
	s.SaveTime()
	e.Run() // all three finish; first is the deepest in the pool
	s.StartTransfer(e, 100, func(any) {}, nil)
	s.StartTransfer(e, 100, func(any) {}, nil) // queued behind the running one
	if s.Active() != 1 || s.Queued() != 1 {
		t.Fatalf("before reset: active %d queued %d", s.Active(), s.Queued())
	}

	e.Reset()
	cfg := Config{Enabled: true, TransferLo: 50, TransferHi: 60}
	s.Reset(cfg, rng.New(2))
	if saves, retrieves := s.Stats(); saves != 0 || retrieves != 0 || s.Active() != 0 || s.Queued() != 0 {
		t.Fatalf("after reset: stats %d/%d active %d queued %d", saves, retrieves, s.Active(), s.Queued())
	}
	if got, want := s.SaveTime(), NewServer(cfg, rng.New(2)).SaveTime(); got != want {
		t.Fatalf("after reset the first save takes %v, a new server's %v", got, want)
	}
	if tr := s.StartTransfer(e, 10, func(any) {}, nil); tr != first {
		t.Fatal("the transfer after a reset did not reuse pooled storage")
	}
}
