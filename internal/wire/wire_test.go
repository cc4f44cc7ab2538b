package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"botgrid/internal/frame"
)

// --- Codec round-trips ---

func TestSubmitRoundTrip(t *testing.T) {
	works := []float64{1, 2.5, 1e6, 0.001}
	payload := appendSubmit(nil, 100, works)
	r := frame.NewReader(payload)
	gran, got, err := decodeSubmit(&r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if gran != 100 {
		t.Fatalf("granularity %v, want 100", gran)
	}
	if len(got) != len(works) {
		t.Fatalf("works %v, want %v", got, works)
	}
	for i := range works {
		if got[i] != works[i] {
			t.Fatalf("works %v, want %v", got, works)
		}
	}
}

func TestFetchRoundTrip(t *testing.T) {
	payload := appendFetch(nil, "worker-7", 12.5)
	r := frame.NewReader(payload)
	worker, power, err := decodeFetch(&r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if string(worker) != "worker-7" || power != 12.5 {
		t.Fatalf("got %q %v", worker, power)
	}
}

func TestReportRoundTrip(t *testing.T) {
	for _, failed := range []bool{false, true} {
		payload := appendReport(nil, "w", 42, failed)
		r := frame.NewReader(payload)
		worker, replica, gotFailed, err := decodeReport(&r)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		if string(worker) != "w" || replica != 42 || gotFailed != failed {
			t.Fatalf("got %q %d %v, want w 42 %v", worker, replica, gotFailed, failed)
		}
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	payload := appendHeartbeat(nil, "hb", 9)
	r := frame.NewReader(payload)
	worker, replica, err := decodeHeartbeat(&r)
	if err != nil || r.Done() != nil {
		t.Fatal(err)
	}
	if string(worker) != "hb" || replica != 9 {
		t.Fatalf("got %q %d", worker, replica)
	}
}

func TestResponseRoundTrips(t *testing.T) {
	// Submit OK and error forms.
	p := appendSubmitResp(nil, SubmitResult{Bag: 3, Tasks: 17}, "")
	r := frame.NewReader(p)
	res, msg, err := decodeSubmitResp(&r)
	if err != nil || r.Done() != nil || msg != nil || res.Bag != 3 || res.Tasks != 17 {
		t.Fatalf("submit resp: %+v %q %v", res, msg, err)
	}
	p = appendSubmitResp(nil, SubmitResult{}, "empty bag")
	r = frame.NewReader(p)
	if _, msg, err = decodeSubmitResp(&r); err != nil || string(msg) != "empty bag" {
		t.Fatalf("submit err resp: %q %v", msg, err)
	}

	// Fetch assigned, no-work, and error forms.
	want := FetchResult{Assigned: true, Replica: 8, Bag: 2, Task: 5, Work: 3.5}
	p = appendFetchResp(nil, want, "")
	r = frame.NewReader(p)
	fres, msg, err := decodeFetchResp(&r)
	if err != nil || r.Done() != nil || msg != nil || fres != want {
		t.Fatalf("fetch resp: %+v %q %v", fres, msg, err)
	}
	p = appendFetchResp(nil, FetchResult{RetryMs: 250}, "")
	r = frame.NewReader(p)
	fres, msg, err = decodeFetchResp(&r)
	if err != nil || msg != nil || fres.Assigned || fres.RetryMs != 250 {
		t.Fatalf("fetch nowork resp: %+v %q %v", fres, msg, err)
	}
	p = appendFetchResp(nil, FetchResult{}, "capacity exhausted")
	r = frame.NewReader(p)
	if _, msg, err = decodeFetchResp(&r); err != nil || string(msg) != "capacity exhausted" {
		t.Fatalf("fetch err resp: %q %v", msg, err)
	}

	// Acks.
	for _, ack := range []Ack{AckOK, AckStale, AckUnknown} {
		r = frame.NewReader(appendAckResp(nil, ack))
		got, err := decodeAckResp(&r)
		if err != nil || r.Done() != nil || got != ack {
			t.Fatalf("ack %v: got %v err %v", ack, got, err)
		}
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	// Truncation of every valid payload must error, never panic.
	full := appendSubmit(nil, 10, []float64{1, 2})
	for n := 0; n < len(full); n++ {
		r := frame.NewReader(full[:n])
		if _, _, err := decodeSubmit(&r, nil); err == nil && r.Done() == nil {
			t.Fatalf("truncated submit at %d decoded", n)
		}
	}
	// Non-finite floats are rejected.
	nan := appendSubmit(nil, 10, []float64{1})
	// Overwrite the work's float bits with NaN bits.
	copy(nan[len(nan)-8:], frame.AppendF64(nil, nanFloat()))
	r := frame.NewReader(nan)
	if _, _, err := decodeSubmit(&r, nil); !errors.Is(err, frame.ErrNonFinite) {
		t.Fatalf("NaN work: %v", err)
	}
	// Oversized worker ID.
	long := appendFetch(nil, strings.Repeat("x", frame.MaxWorkerID+1), 1)
	r = frame.NewReader(long)
	if _, _, err := decodeFetch(&r); !errors.Is(err, frame.ErrRange) {
		t.Fatalf("oversized worker: %v", err)
	}
	// Trailing bytes are corruption.
	r = frame.NewReader(append(appendHeartbeat(nil, "w", 1), 0))
	if _, _, err := decodeHeartbeat(&r); err != nil {
		t.Fatal(err)
	} else if err := r.Done(); !errors.Is(err, frame.ErrTrailing) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func nanFloat() float64 {
	var z float64
	return z / z
}

// --- Framing ---

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := frame.Write(&buf, msgBatch, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, _, err := frame.Read(&buf, nil, msgMax)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgBatch || !bytes.Equal(got, payload) {
		t.Fatalf("got type %d payload %q", typ, got)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := frame.Write(&buf, msgBatch, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload byte: checksum must catch it.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0xff
	if _, _, _, err := frame.Read(bytes.NewReader(flipped), nil, msgMax); !errors.Is(err, frame.ErrChecksum) {
		t.Fatalf("flipped byte: %v", err)
	}
	// Unknown type byte.
	bad := append([]byte(nil), raw...)
	bad[0] = 200
	if _, _, _, err := frame.Read(bytes.NewReader(bad), nil, msgMax); !errors.Is(err, frame.ErrType) {
		t.Fatalf("unknown type: %v", err)
	}
	// Truncated stream.
	if _, _, _, err := frame.Read(bytes.NewReader(raw[:5]), nil, msgMax); err == nil {
		t.Fatal("truncated header decoded")
	}
	if _, _, _, err := frame.Read(bytes.NewReader(raw[:len(raw)-2]), nil, msgMax); err == nil {
		t.Fatal("truncated payload decoded")
	}
}

// --- Client ↔ server integration against a stub dispatch plane ---

// stubSession is a minimal in-memory dispatch plane: every fetch assigns
// task k of bag 0 with work 5, reports ack OK for the echoed replica,
// heartbeats ack stale. It records Flush calls to prove ack coalescing.
type stubSession struct {
	h       *stubHandler
	replica uint64
}

type stubHandler struct {
	mu      sync.Mutex
	flushes int
	pending int
	submits int
}

func (h *stubHandler) NewSession() Session { return &stubSession{h: h} }

func (s *stubSession) Submit(gran float64, works []float64) (SubmitResult, Pending, error) {
	if len(works) == 0 {
		return SubmitResult{}, Pending{}, errors.New("empty bag")
	}
	s.h.mu.Lock()
	s.h.submits++
	n := s.h.submits
	s.h.mu.Unlock()
	return SubmitResult{Bag: n - 1, Tasks: len(works)}, Pending{Shard: 0, LSN: uint64(n)}, nil
}

func (s *stubSession) Fetch(worker []byte, power float64) (FetchResult, error) {
	if string(worker) == "reject" {
		return FetchResult{}, errors.New("capacity exhausted")
	}
	s.replica++
	return FetchResult{Assigned: true, Replica: s.replica, Bag: 0, Task: int(s.replica), Work: 5}, nil
}

func (s *stubSession) Report(worker []byte, replica uint64, failed bool) (Ack, Pending) {
	if replica != s.replica {
		return AckStale, Pending{}
	}
	return AckOK, Pending{Shard: 0, LSN: replica}
}

func (s *stubSession) Heartbeat(worker []byte, replica uint64) Ack { return AckStale }

func (s *stubSession) Flush(pending []Pending) error {
	s.h.mu.Lock()
	s.h.flushes++
	s.h.pending += len(pending)
	s.h.mu.Unlock()
	return nil
}

func (s *stubSession) Close() {}

func startStub(t *testing.T) (*stubHandler, string, func()) {
	t.Helper()
	h := &stubHandler{}
	srv := NewServer(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	return h, ln.Addr().String(), func() {
		srv.Close()
		<-done
	}
}

func TestClientServerSingleOps(t *testing.T) {
	_, addr, stop := startStub(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sub, err := c.Submit(100, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Bag != 0 || sub.Tasks != 3 {
		t.Fatalf("submit: %+v", sub)
	}
	if _, err := c.Submit(100, []float64{}); err == nil {
		t.Fatal("empty bag accepted")
	} else if c.Err() != nil {
		t.Fatalf("in-band submit error poisoned the client: %v", c.Err())
	}

	f, err := c.Fetch("w1", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Assigned || f.Replica != 1 || f.Work != 5 {
		t.Fatalf("fetch: %+v", f)
	}
	if _, err := c.Fetch("reject", 10); err == nil {
		t.Fatal("rejected fetch succeeded")
	} else if c.Err() != nil {
		t.Fatalf("in-band fetch error poisoned the client: %v", c.Err())
	}

	ack, err := c.Report("w1", f.Replica, false)
	if err != nil || ack != AckOK {
		t.Fatalf("report: %v %v", ack, err)
	}
	ack, err = c.Report("w1", 999, false)
	if err != nil || ack != AckStale {
		t.Fatalf("stale report: %v %v", ack, err)
	}
	ack, err = c.Heartbeat("w1", 1)
	if err != nil || ack != AckStale {
		t.Fatalf("heartbeat: %v %v", ack, err)
	}
}

func TestClientServerBatch(t *testing.T) {
	h, addr, stop := startStub(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	b := c.NewBatch()
	b.Submit(100, []float64{1, 2})
	for i := 0; i < 10; i++ {
		b.Fetch(fmt.Sprintf("w%d", i), 10)
	}
	b.Heartbeat("w0", 1)
	res, err := b.Do()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 12 {
		t.Fatalf("%d results, want 12", len(res))
	}
	if res[0].Submit.Tasks != 2 || res[0].Err != "" {
		t.Fatalf("batch submit: %+v", res[0])
	}
	for i := 1; i <= 10; i++ {
		if !res[i].Fetch.Assigned || res[i].Fetch.Replica != uint64(i) {
			t.Fatalf("batch fetch %d: %+v", i, res[i])
		}
	}
	if res[11].Ack != AckStale {
		t.Fatalf("batch heartbeat: %+v", res[11])
	}

	// The whole batch (1 submit + 10 reports worth of obligations) must
	// have been flushed exactly once: one durability wait per burst.
	h.mu.Lock()
	flushes, pending := h.flushes, h.pending
	h.mu.Unlock()
	if flushes != 1 {
		t.Fatalf("%d flushes for one batch, want 1", flushes)
	}
	if pending != 1 { // only the submit carried an obligation
		t.Fatalf("%d pending obligations, want 1", pending)
	}

	// Reusing the batch must reset it.
	b = c.NewBatch()
	if b.Len() != 0 {
		t.Fatalf("reused batch has %d ops", b.Len())
	}
	b.Report("w1", 1, false)
	res, err = b.Do()
	if err != nil || len(res) != 1 {
		t.Fatalf("second batch: %v %d", err, len(res))
	}
}

func TestHandshakeRejectsStrangers(t *testing.T) {
	_, addr, stop := startStub(t)
	defer stop()

	// A client speaking a different protocol (say HTTP) is dropped without
	// a response.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("stray HTTP client got %d response bytes, want a dropped connection", n)
	}

	// A wire client with another protocol version — the retired v1 or a
	// future one — gets an explicit error frame, then the connection closes.
	for _, version := range []byte{1, 99} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := append([]byte(protoMagic), version)
		if err := frame.Write(conn, msgHello, hello); err != nil {
			t.Fatal(err)
		}
		typ, payload, _, err := frame.Read(conn, nil, msgMax)
		if err != nil {
			t.Fatal(err)
		}
		if typ != msgError || !bytes.Contains(payload, []byte("version")) {
			t.Fatalf("version %d answer: type %d %q", version, typ, payload)
		}
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("version %d: connection not closed after the error frame: %v", version, err)
		}
	}
}

func TestServerDropsCorruptFrames(t *testing.T) {
	_, addr, stop := startStub(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Corrupt a frame on the raw connection: flip payload bytes under the
	// checksum. The server must drop the connection.
	payload := appendFetch([]byte{1, opFetch}, "w", 1)
	payload[2] ^= 0xff // length byte of the worker string: now nonsense
	if err := frame.Write(c.conn, msgBatch, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch("w", 1); err == nil {
		t.Fatal("fetch on a poisoned connection succeeded")
	}
}

// TestPayloadDecodeFailuresAreBadFrames: a batch payload the decoder
// refuses — cut short, or holding a value out of range — is reported as
// ErrBadFrame wrapping the internal/frame error that says why, by the
// server's frame handler and by the client's Batch.Do alike.
func TestPayloadDecodeFailuresAreBadFrames(t *testing.T) {
	fetch := appendFetch([]byte{1, opFetch}, "w", 1)
	s := NewServer(&stubHandler{})
	for _, c := range []struct {
		name    string
		payload []byte
		want    error
	}{
		{"truncated", fetch[:len(fetch)-3], frame.ErrTruncated},
		{"out of range", []byte{1, 0xee}, frame.ErrRange}, // no such op
	} {
		err := s.handleFrame(&stubSession{h: &stubHandler{}}, &connState{}, msgBatch, c.payload)
		if !errors.Is(err, ErrBadFrame) || !errors.Is(err, c.want) {
			t.Errorf("server, %s payload: err = %v, want ErrBadFrame wrapping %v", c.name, err, c.want)
		}
	}

	for _, c := range []struct {
		name string
		resp []byte // the batch response to a one-fetch batch
		want error
	}{
		{"truncated", []byte{1, fetchAssigned, 5}, frame.ErrTruncated},
		{"out of range", []byte{1, 0xee}, frame.ErrRange}, // no such fetch response
	} {
		addr := fakeServer(t, c.resp)
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.Fetch("w", 1)
		if !errors.Is(err, ErrBadFrame) || !errors.Is(err, c.want) {
			t.Errorf("client, %s response: err = %v, want ErrBadFrame wrapping %v", c.name, err, c.want)
		}
		cl.Close()
	}
}

// fakeServer accepts one connection, completes the handshake and answers
// the first request frame with a batch response carrying resp.
func fakeServer(t *testing.T, resp []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, _, err := frame.Read(conn, nil, msgMax); err != nil {
			return
		}
		if err := frame.Write(conn, msgHelloResp, []byte{protoVersion}); err != nil {
			return
		}
		if _, _, _, err := frame.Read(conn, nil, msgMax); err != nil {
			return
		}
		frame.Write(conn, msgBatchResp, resp)
		conn.Read(make([]byte, 1)) // until the client hangs up
	}()
	return ln.Addr().String()
}
