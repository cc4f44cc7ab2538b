// Package wire is the binary transport of the live work-dispatch service:
// a length-prefixed, CRC32-framed codec carried over persistent TCP
// connections, replacing one JSON-over-HTTP round-trip per worker poll
// with typed binary messages and batched traffic.
//
// Every message is a typed internal/frame frame — the journal's segment
// framing with a type byte in front, exactly as the replication layer's
// log-transfer protocol frames its messages — so a frame that survives
// the checksum is as trustworthy as a journal record read back from disk.
// Payloads go through internal/frame's field codec, the one the journal's
// records use (uvarints for counts and IDs, IEEE-754 bits for times and
// works, one set of field limits), so where message shapes overlap — a
// submitted bag's granularity + works vector is the journal's
// KindBagSubmitted payload sans bag ID — the bytes match.
//
// After the hello handshake the protocol has one request shape: a
// msgBatch frame carrying any mix of the four sub-operations (submit,
// fetch, report, heartbeat — internal/serve's HTTP endpoints, one op code
// each) for any number of worker identities, answered by one
// msgBatchResp, so a driver multiplexing N workers fetches N tasks in a
// single round-trip. A single operation is a batch of one. Every fetch
// and report renews the owning worker's lease — a report IS a heartbeat,
// piggybacked; heartbeat ops exist only for workers mid-computation
// between reports.
//
// Durability acks coalesce: the server executes every operation of a
// batch (and of any further frames already buffered on the connection),
// collects the journal obligations, and waits for durability once per
// touched shard before answering — one group-committed fsync acknowledges
// the whole burst. The JSON/HTTP protocol stays as a compatibility front
// end; a differential test in internal/serve proves both transports
// produce identical scheduler state from identical traffic.
//
// The encode/decode path is zero-alloc in steady state (buffers and
// decoded views are reused; worker IDs alias the connection's read
// buffer) and annotated //botlint:hotpath.
package wire

import "errors"

// Frame types. Numbers 3–10 were protocol version 1's standalone
// submit/fetch/report/heartbeat frames; they stay unassigned so hello,
// helloResp and error mean the same thing to every version and a
// mismatched peer fails its handshake with a readable error.
const (
	msgHello     byte = 1  // client → server: magic + proto version
	msgHelloResp byte = 2  // server → client: version
	msgBatch     byte = 11 // client → server: count + mixed sub-ops
	msgBatchResp byte = 12 // server → client: count + sub-responses
	msgError     byte = 13 // server → client: fatal error, connection closes

	msgMax = msgError
)

// Sub-operation codes inside a msgBatch payload.
const (
	opSubmit    byte = 1
	opFetch     byte = 2
	opReport    byte = 3
	opHeartbeat byte = 4
)

// protoMagic opens every connection; a server reads it before anything
// else, so a stray HTTP client (or the replication protocol) is rejected
// on the first frame.
const protoMagic = "BGWIRE1\n"

// protoVersion is the codec version exchanged in the hello handshake.
// Version 2 dropped the standalone request frames: every request is a
// batch.
const protoVersion = 2

// maxBatchOps bounds a batch's op count, checked before any response is
// staged; the per-field limits are internal/frame's.
const maxBatchOps = 1 << 16

// ErrBadFrame reports an undecodable or corrupt wire frame; the
// connection it arrived on is beyond recovery and must be closed.
var ErrBadFrame = errors.New("wire: bad frame")
