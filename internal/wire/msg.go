package wire

// Message payload encodings, in internal/frame's payload codec — the one
// the journal's records use: uvarints for counts, IDs and sequence
// numbers, IEEE-754 little-endian bits for works, a single status/ack
// byte leading every response. All encoders append to a caller-owned
// buffer (dst = append(dst, ...)); all decoders read a frame.Reader whose
// views alias the connection's read buffer, so the steady-state codec
// path allocates nothing.

import (
	"encoding/binary"

	"botgrid/internal/frame"
)

// Ack is a report/heartbeat acknowledgement. AckOK and AckStale mirror
// the HTTP protocol's "ok" and "stale"; AckUnknown is the binary twin of
// its 404 for an unregistered worker.
type Ack uint8

const (
	AckOK Ack = iota
	AckStale
	AckUnknown

	ackMax = AckUnknown
)

// String names the ack like the HTTP protocol does.
func (a Ack) String() string {
	switch a {
	case AckOK:
		return "ok"
	case AckStale:
		return "stale"
	default:
		return "unknown"
	}
}

// Fetch response status codes.
const (
	fetchNoWork   byte = 0 // no assignment; retry-ms hint follows
	fetchAssigned byte = 1 // assignment follows
	fetchErr      byte = 2 // error string follows (capacity exhausted)
)

// Submit response status codes.
const (
	submitOK  byte = 0 // bag + tasks follow
	submitErr byte = 1 // error string follows (invalid bag, journal down)
)

// Report status bytes on the wire.
const (
	statusDone   byte = 1
	statusFailed byte = 2
)

// SubmitResult is a submit acknowledgement: the bag's global ID and its
// task count.
type SubmitResult struct {
	Bag   int
	Tasks int
}

// FetchResult is one worker poll's outcome: an assignment, or a retry
// hint when the queue has nothing for this worker yet.
type FetchResult struct {
	Assigned bool
	Replica  uint64
	Bag      int
	Task     int
	Work     float64
	RetryMs  int
}

// --- Requests ---

// appendSubmit encodes a submit payload: granularity, then the works
// vector — the journal's KindBagSubmitted layout without the bag ID.
//
//botlint:hotpath
func appendSubmit(dst []byte, granularity float64, works []float64) []byte {
	dst = frame.AppendF64(dst, granularity)
	return frame.AppendFloats(dst, works)
}

// decodeSubmit parses a submit payload, appending the works onto dst
// (reused across requests by the caller). An empty or non-positive works
// vector is valid on the wire: the dispatch plane rejects it in-band,
// matching the HTTP handler's 400.
//
//botlint:hotpath
func decodeSubmit(r *frame.Reader, dst []float64) (granularity float64, works []float64, err error) {
	granularity = r.F64()
	works = r.Floats(dst, frame.MaxWorks)
	return granularity, works, r.Err()
}

// appendFetch encodes a fetch payload: worker ID, then the advertised
// power (0 keeps the server default).
//
//botlint:hotpath
//botlint:wire-skip worker -- the JSON protocol carries the worker ID in the URL path, not the FetchRequest body
func appendFetch(dst []byte, worker string, power float64) []byte {
	dst = frame.AppendString(dst, worker)
	return frame.AppendF64(dst, power)
}

//botlint:hotpath
func decodeFetch(r *frame.Reader) (worker []byte, power float64, err error) {
	worker = r.Bytes(frame.MaxWorkerID)
	power = r.F64()
	return worker, power, r.Err()
}

// appendReport encodes a report payload: worker ID, replica token, status.
//
//botlint:hotpath
//botlint:wire-skip worker -- the JSON protocol carries the worker ID in the URL path, not the ReportRequest body
//botlint:wire-skip failed -- encoded as the status byte; the JSON twin's Status string carries the same bit
func appendReport(dst []byte, worker string, replica uint64, failed bool) []byte {
	dst = frame.AppendString(dst, worker)
	dst = binary.AppendUvarint(dst, replica)
	st := statusDone
	if failed {
		st = statusFailed
	}
	dst = append(dst, st)
	return dst
}

//botlint:hotpath
func decodeReport(r *frame.Reader) (worker []byte, replica uint64, failed bool, err error) {
	worker = r.Bytes(frame.MaxWorkerID)
	replica = r.Uvarint()
	st := r.U8()
	if r.Err() == nil && st != statusDone && st != statusFailed {
		return nil, 0, false, frame.ErrRange
	}
	return worker, replica, st == statusFailed, r.Err()
}

// appendHeartbeat encodes a heartbeat payload: worker ID, replica token.
//
//botlint:hotpath
//botlint:wire-skip worker -- the JSON protocol carries the worker ID in the URL path, not the HeartbeatRequest body
func appendHeartbeat(dst []byte, worker string, replica uint64) []byte {
	dst = frame.AppendString(dst, worker)
	return binary.AppendUvarint(dst, replica)
}

//botlint:hotpath
func decodeHeartbeat(r *frame.Reader) (worker []byte, replica uint64, err error) {
	worker = r.Bytes(frame.MaxWorkerID)
	replica = r.Uvarint()
	return worker, replica, r.Err()
}

// --- Responses ---

// appendSubmitResp encodes a submit acknowledgement (or its error form
// when msg is non-empty).
//
//botlint:hotpath
func appendSubmitResp(dst []byte, res SubmitResult, msg string) []byte {
	if msg != "" {
		dst = append(dst, submitErr)
		return frame.AppendString(dst, msg)
	}
	dst = append(dst, submitOK)
	dst = binary.AppendUvarint(dst, uint64(res.Bag))
	return binary.AppendUvarint(dst, uint64(res.Tasks))
}

//botlint:hotpath
func decodeSubmitResp(r *frame.Reader) (res SubmitResult, msg []byte, err error) {
	// A truncated payload reads code 0: submitOK's case returns the error.
	switch code := r.U8(); code {
	case submitOK:
		res.Bag = r.Int()
		res.Tasks = r.Int()
		return res, nil, r.Err()
	case submitErr:
		msg = r.Bytes(frame.MaxWorkerID)
		return res, msg, r.Err()
	default:
		return res, nil, frame.ErrRange
	}
}

// appendFetchResp encodes a fetch response: an assignment, a retry hint,
// or an error.
//
//botlint:hotpath
func appendFetchResp(dst []byte, res FetchResult, msg string) []byte {
	if msg != "" {
		dst = append(dst, fetchErr)
		return frame.AppendString(dst, msg)
	}
	if !res.Assigned {
		dst = append(dst, fetchNoWork)
		return binary.AppendUvarint(dst, uint64(res.RetryMs))
	}
	dst = append(dst, fetchAssigned)
	dst = binary.AppendUvarint(dst, res.Replica)
	dst = binary.AppendUvarint(dst, uint64(res.Bag))
	dst = binary.AppendUvarint(dst, uint64(res.Task))
	return frame.AppendF64(dst, res.Work)
}

//botlint:hotpath
func decodeFetchResp(r *frame.Reader) (res FetchResult, msg []byte, err error) {
	// A truncated payload reads code 0: fetchNoWork's case returns the error.
	switch code := r.U8(); code {
	case fetchNoWork:
		res.RetryMs = r.Int()
		return res, nil, r.Err()
	case fetchAssigned:
		res.Assigned = true
		res.Replica = r.Uvarint()
		res.Bag = r.Int()
		res.Task = r.Int()
		res.Work = r.F64()
		return res, nil, r.Err()
	case fetchErr:
		msg = r.Bytes(frame.MaxWorkerID)
		return res, msg, r.Err()
	default:
		return res, nil, frame.ErrRange
	}
}

// appendAckResp encodes a report/heartbeat acknowledgement.
//
//botlint:hotpath
func appendAckResp(dst []byte, ack Ack) []byte {
	dst = append(dst, byte(ack))
	return dst
}

//botlint:hotpath
func decodeAckResp(r *frame.Reader) (Ack, error) {
	a := r.U8() // 0 when truncated: AckOK, with the error
	if Ack(a) > ackMax {
		return 0, frame.ErrRange
	}
	return Ack(a), r.Err()
}
