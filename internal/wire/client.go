package wire

// The client side: one persistent connection and the Batch builder that
// packs any mix of operations for any number of worker identities into
// one round-trip. The single-shot operations are batches of one.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"botgrid/internal/frame"
)

// Client speaks the binary dispatch protocol over one persistent TCP
// connection. It is NOT safe for concurrent use: requests and responses
// are strictly ordered on the connection, so each driver goroutine owns
// its own Client (the intended fan-in is many workers multiplexed over
// one client via Batch, not many goroutines over one connection).
//
// Any transport or protocol error poisons the client: every later call
// returns the same error, and the caller re-dials. Application-level
// failures (a stale replica, an invalid bag) are in-band and leave the
// connection healthy.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	rbuf  []byte // frame read buffer
	pbuf  []byte // request payload under construction
	fbuf  []byte // staged outgoing frame (header + payload)
	batch Batch  // reused by NewBatch
	err   error  // sticky fatal error
}

// DialTimeout is the connect + handshake deadline for Dial.
const DialTimeout = 10 * time.Second

// Dial opens a connection to a wire server and performs the handshake.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, connBufSize),
		bw:   bufio.NewWriterSize(conn, connBufSize),
	}
	conn.SetDeadline(time.Now().Add(DialTimeout))
	hello := make([]byte, 0, len(protoMagic)+1)
	hello = append(hello, protoMagic...)
	hello = append(hello, protoVersion)
	if err := c.send(msgHello, hello); err != nil {
		conn.Close()
		return nil, err
	}
	payload, err := c.recv(msgHelloResp)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if len(payload) != 1 || payload[0] != protoVersion {
		conn.Close()
		return nil, fmt.Errorf("wire: server speaks protocol version %v, want %d", payload, protoVersion)
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}

// Close tears the connection down. The client is unusable afterwards.
func (c *Client) Close() error {
	if c.err == nil {
		c.err = errors.New("wire: client closed")
	}
	return c.conn.Close()
}

// Err returns the sticky fatal error, nil while the client is healthy.
func (c *Client) Err() error { return c.err }

// send writes one frame and flushes it. The frame is staged into a
// reusable buffer — handing frame.Write's header array to the
// bufio.Writer would heap-allocate it on every request.
//
//botlint:hotpath
func (c *Client) send(typ byte, payload []byte) error {
	if c.err != nil {
		return c.err
	}
	c.fbuf = frame.AppendTyped(c.fbuf[:0], typ, payload)
	if _, err := c.bw.Write(c.fbuf); err != nil {
		c.err = err
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.err = err
		return err
	}
	return nil
}

// recv reads one frame and requires it to be of the given type. A
// msgError frame becomes the server's error; both poison the client.
func (c *Client) recv(want byte) ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	typ, payload, buf, err := frame.Read(c.br, c.rbuf, msgMax)
	c.rbuf = buf
	if err != nil {
		c.err = err
		return nil, err
	}
	if typ == msgError {
		c.err = fmt.Errorf("wire: server error: %s", payload)
		return nil, c.err
	}
	if typ != want {
		c.err = fmt.Errorf("%w: response type %d, want %d", ErrBadFrame, typ, want)
		return nil, c.err
	}
	return payload, nil
}

// one runs a single-operation batch and returns its only result.
func (b *Batch) one() (BatchResult, error) {
	res, err := b.Do()
	if err != nil {
		return BatchResult{}, err
	}
	return res[0], nil
}

// Submit enters a bag and returns its global ID and task count.
func (c *Client) Submit(granularity float64, works []float64) (SubmitResult, error) {
	b := c.NewBatch()
	b.Submit(granularity, works)
	res, err := b.one()
	if err == nil && res.Err != "" {
		err = fmt.Errorf("wire: submit: %s", res.Err)
	}
	return res.Submit, err
}

// Fetch requests worker's current assignment, registering it on first
// contact (power 0 keeps the server's default).
func (c *Client) Fetch(worker string, power float64) (FetchResult, error) {
	b := c.NewBatch()
	b.Fetch(worker, power)
	res, err := b.one()
	if err == nil && res.Err != "" {
		err = fmt.Errorf("wire: fetch: %s", res.Err)
	}
	return res.Fetch, err
}

// Report reports an assignment outcome; failed requests the paper's
// machine-failure treatment (kill + resubmit). Reports renew the lease:
// no separate heartbeat is needed around one.
func (c *Client) Report(worker string, replica uint64, failed bool) (Ack, error) {
	b := c.NewBatch()
	b.Report(worker, replica, failed)
	res, err := b.one()
	return res.Ack, err
}

// Heartbeat renews worker's lease mid-computation.
func (c *Client) Heartbeat(worker string, replica uint64) (Ack, error) {
	b := c.NewBatch()
	b.Heartbeat(worker, replica)
	res, err := b.one()
	return res.Ack, err
}

// BatchResult is one sub-operation's outcome, in submission order. Which
// fields are meaningful follows from the operation: Submit for Submit
// ops, Fetch for Fetch ops, Ack for Report and Heartbeat ops. Err carries
// an in-band failure (invalid bag, capacity exhausted) and leaves the
// connection healthy.
type BatchResult struct {
	Submit SubmitResult
	Fetch  FetchResult
	Ack    Ack
	Err    string
}

// Batch accumulates operations for one round-trip. Obtain one from
// NewBatch, add operations, then Do. The zero Batch is not usable.
type Batch struct {
	c       *Client
	ops     []byte // op code per sub-operation, in order
	payload []byte // concatenated [op][op payload] encodings
	results []BatchResult
}

// NewBatch returns the client's reusable batch builder, reset. Only one
// batch per client may be under construction or in flight (the client is
// serial anyway); the single-shot operations use the same builder.
func (c *Client) NewBatch() *Batch {
	b := &c.batch
	b.c = c
	b.ops = b.ops[:0]
	b.payload = b.payload[:0]
	return b
}

// Len reports how many operations the batch holds.
func (b *Batch) Len() int { return len(b.ops) }

// Submit adds a bag submission to the batch.
func (b *Batch) Submit(granularity float64, works []float64) {
	b.ops = append(b.ops, opSubmit)
	b.payload = append(b.payload, opSubmit)
	b.payload = appendSubmit(b.payload, granularity, works)
}

// Fetch adds a worker poll to the batch.
func (b *Batch) Fetch(worker string, power float64) {
	b.ops = append(b.ops, opFetch)
	b.payload = append(b.payload, opFetch)
	b.payload = appendFetch(b.payload, worker, power)
}

// Report adds an assignment outcome to the batch.
func (b *Batch) Report(worker string, replica uint64, failed bool) {
	b.ops = append(b.ops, opReport)
	b.payload = append(b.payload, opReport)
	b.payload = appendReport(b.payload, worker, replica, failed)
}

// Heartbeat adds a lease renewal to the batch.
func (b *Batch) Heartbeat(worker string, replica uint64) {
	b.ops = append(b.ops, opHeartbeat)
	b.payload = append(b.payload, opHeartbeat)
	b.payload = appendHeartbeat(b.payload, worker, replica)
}

// Do executes the batch in one round-trip and returns one result per
// operation, in order. The returned slice is reused by the next Do on
// this client. A transport error poisons the client; in-band failures
// land in the individual results.
func (b *Batch) Do() ([]BatchResult, error) {
	c := b.c
	c.pbuf = binary.AppendUvarint(c.pbuf[:0], uint64(len(b.ops)))
	c.pbuf = append(c.pbuf, b.payload...)
	if err := c.send(msgBatch, c.pbuf); err != nil {
		return nil, err
	}
	payload, err := c.recv(msgBatchResp)
	if err != nil {
		return nil, err
	}
	results, err := b.decode(payload)
	if err != nil {
		c.err = err
		return nil, err
	}
	return results, nil
}

// decode reads one result per operation from a batch response payload.
// A refused payload comes back as ErrBadFrame wrapping the internal/frame
// error that says why.
func (b *Batch) decode(payload []byte) ([]BatchResult, error) {
	r := frame.NewReader(payload)
	if n := r.Int(); r.Err() != nil || n != len(b.ops) {
		return nil, fmt.Errorf("%w: batch response count %d, want %d", ErrBadFrame, n, len(b.ops))
	}
	if cap(b.results) < len(b.ops) {
		b.results = make([]BatchResult, len(b.ops))
	}
	results := b.results[:len(b.ops)]
	var err error
	for i, op := range b.ops {
		res, msg := &results[i], []byte(nil)
		*res = BatchResult{}
		switch op {
		case opSubmit:
			res.Submit, msg, err = decodeSubmitResp(&r)
		case opFetch:
			res.Fetch, msg, err = decodeFetchResp(&r)
		case opReport, opHeartbeat:
			res.Ack, err = decodeAckResp(&r)
		}
		res.Err = string(msg)
		if err != nil {
			return nil, badPayload(err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, badPayload(err)
	}
	return results, nil
}
