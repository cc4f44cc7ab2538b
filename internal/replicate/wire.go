package replicate

// The log-transfer wire protocol. One TCP connection per leader→follower
// session carries every message as a typed internal/frame frame — the
// journal's segment framing with a type byte in front, so a frame that
// survives the checksum is exactly as trustworthy as a log record read
// back from disk. Payloads are either JSON control messages (handshake,
// heartbeat, ack, votes) or binary log entries:
//
//	entry payload: [uint64 LE term][uint64 LE lsn][journal record payload]
//
// where the record payload is journal.EncodeRecord's encoding, byte-for-
// byte: the wire and the WAL share one codec, so a record replicated and a
// record recovered from disk cannot disagree.
//
// Session shape: the leader dials and sends hello; the follower answers
// state; the leader ships its newest snapshot file, then streams entries
// and heartbeats; the follower sends acks carrying its durable LSN. A
// follower that knows a higher term answers any message with reject, which
// deposes the dialing leader. Votes use one-shot connections: voteReq in,
// voteResp out.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"botgrid/internal/frame"
	"botgrid/internal/journal"
)

// Frame types.
const (
	msgHello     byte = 1 // leader → follower: open a session      (helloMsg)
	msgState     byte = 2 // follower → leader: local log position  (stateMsg)
	msgSnapshot  byte = 3 // leader → follower: snapshot image      (raw snapshot file bytes)
	msgEntry     byte = 4 // leader → follower: one log record      (binary, see above)
	msgHeartbeat byte = 5 // leader → follower: lease + commit LSN  (hbMsg)
	msgAck       byte = 6 // follower → leader: durable LSN         (ackMsg)
	msgVoteReq   byte = 7 // candidate → peer: request a vote       (voteReqMsg)
	msgVoteResp  byte = 8 // peer → candidate: the vote             (voteRespMsg)
	msgReject    byte = 9 // either → either: stale term, go away   (rejectMsg)

	msgMax = msgReject
)

// ErrBadFrame reports an undecodable or corrupt wire frame.
var ErrBadFrame = errors.New("replicate: bad frame")

func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

// entryHeader is the fixed prefix of an entry payload: term + LSN.
const entryHeader = 16

// appendEntryFrame appends one msgEntry frame to dst: the typed header is
// reserved, the payload (term, LSN, record) encoded behind it and the
// header filled in last, so the payload is never copied.
func appendEntryFrame(dst []byte, term, lsn uint64, r *journal.Record) []byte {
	base := len(dst)
	dst = append(dst, msgEntry)
	dst = append(dst, make([]byte, frame.HeaderSize)...)
	dst = binary.LittleEndian.AppendUint64(dst, term)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = journal.EncodeRecord(dst, r)
	frame.Fill(dst[base+1:base+frame.TypedHeaderSize], dst[base+frame.TypedHeaderSize:])
	return dst
}

// decodeEntry parses an entry payload into its term, LSN and record. The
// record is validated by the journal codec: a corrupt entry can never be
// appended to a follower's log.
func decodeEntry(payload []byte) (term, lsn uint64, r journal.Record, err error) {
	if len(payload) < entryHeader {
		return 0, 0, r, badFrame("entry of %d bytes", len(payload))
	}
	term = binary.LittleEndian.Uint64(payload)
	lsn = binary.LittleEndian.Uint64(payload[8:])
	r, err = journal.DecodeRecord(payload[entryHeader:])
	return term, lsn, r, err
}

// Control messages. All are JSON: they are rare (one handshake per session,
// heartbeats on a timer, votes on elections) and benefit from being
// greppable in a packet dump more than from a binary encoding.

// helloMsg opens a leader→follower session.
type helloMsg struct {
	LeaderID string `json:"leader_id"`
	Term     uint64 `json:"term"`
	// HTTPAddr is the leader's advertised dispatch endpoint; followers
	// redirect client traffic to it.
	HTTPAddr string `json:"http_addr,omitempty"`
	Commit   uint64 `json:"commit"`
}

// stateMsg is the follower's handshake answer: where its log stands.
type stateMsg struct {
	Term       uint64 `json:"term"`
	LastLSN    uint64 `json:"last_lsn"`
	AppendTerm uint64 `json:"append_term"`
}

// hbMsg renews the leader lease and publishes the commit LSN.
type hbMsg struct {
	Term   uint64 `json:"term"`
	Commit uint64 `json:"commit"`
}

// ackMsg reports the follower's durable LSN (its match index).
type ackMsg struct {
	LSN uint64 `json:"lsn"`
}

// voteReqMsg asks for a vote: the candidate's term and log position.
type voteReqMsg struct {
	Term        uint64 `json:"term"`
	CandidateID string `json:"candidate_id"`
	LastTerm    uint64 `json:"last_term"`
	LastLSN     uint64 `json:"last_lsn"`
}

// voteRespMsg answers a voteReqMsg.
type voteRespMsg struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

// rejectMsg refuses a stale-term message, carrying the refuser's term.
type rejectMsg struct {
	Term uint64 `json:"term"`
}

// sendJSON marshals v and writes it as a frame of the given type.
func sendJSON(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return frame.Write(w, typ, payload)
}

// decodeJSON unmarshals a control payload, rejecting trailing garbage the
// same way the record codec does.
func decodeJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return badFrame("control message: %v", err)
	}
	return nil
}
