// Package errstrict stands in for internal/journal in the error-strictness
// fixtures: a package whose write/sync APIs must never have their errors
// discarded.
package errstrict

// WriteBlob persists a blob.
func WriteBlob(b []byte) error { _ = b; return nil }

// SyncAll flushes everything.
func SyncAll() error { return nil }

// SendEntry streams one log entry to a follower (the replication layer's
// transfer surface; "Send" is a strict name fragment).
func SendEntry(b []byte) error { _ = b; return nil }

// AckDurable reports a durable LSN back to the leader ("Ack" fragment).
func AckDurable(lsn uint64) error { _ = lsn; return nil }

// FlushFrames drains buffered wire frames to the socket (the wire
// transport's surface; "Flush" is a strict name fragment — an unflushed
// batch response strands the client mid-round-trip).
func FlushFrames() error { return nil }

// CloseConn tears down a wire connection ("Close" fragment; a swallowed
// close error leaks the descriptor silently).
func CloseConn() error { return nil }

// Write sends one typed frame (internal/frame's cold-path writer, the
// bare strict name: a dropped error leaves the peer waiting on a
// handshake or error frame that never left).
func Write(typ byte, payload []byte) error { _, _ = typ, payload; return nil }

// Lookup is not part of the durability surface (no strict name fragment);
// its error may be discarded without a finding.
func Lookup() error { return nil }
