// Package errcheckpos is the caught-positive fixture for the
// error-strictness rule: every way of discarding a sync/write error.
package errcheckpos

import (
	"os"

	"fix/errstrict"
)

// Shutdown drops durability errors five different ways.
func Shutdown(f *os.File) {
	f.Sync()                     // want errcheck
	_ = f.Sync()                 // want errcheck
	defer f.Sync()               // want errcheck
	errstrict.SyncAll()          // want errcheck
	_ = errstrict.WriteBlob(nil) // want errcheck
}

// Replicate drops log-transfer errors: a swallowed send or ack error
// leaves a follower silently behind instead of forcing a reconnect.
func Replicate() {
	errstrict.SendEntry(nil)      // want errcheck
	_ = errstrict.AckDurable(7)   // want errcheck
	go errstrict.SendEntry(nil)   // want errcheck
	defer errstrict.AckDurable(7) // want errcheck
}

// Disconnect drops wire-transport teardown errors: a swallowed flush
// error loses the connection's final batch of acks, a swallowed close
// error hides the failure that explains it.
func Disconnect() {
	errstrict.FlushFrames()       // want errcheck
	_ = errstrict.CloseConn()     // want errcheck
	defer errstrict.FlushFrames() // want errcheck
}

// Handshake drops the frame codec's write error: the hello never reached
// the socket and the session waits on an answer that cannot come.
func Handshake() {
	errstrict.Write(1, nil)     // want errcheck
	_ = errstrict.Write(1, nil) // want errcheck
}
