// Package errcheckneg is the clean-negative fixture for the
// error-strictness rule: every error handled, plus a non-strict API whose
// error may legitimately be dropped.
package errcheckneg

import (
	"os"

	"fix/errstrict"
)

// Shutdown checks every durability error.
func Shutdown(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := errstrict.WriteBlob(nil); err != nil {
		return err
	}
	errstrict.Lookup() // not a durability API: discard is fine
	return errstrict.SyncAll()
}

// Stream handles every log-transfer error.
func Stream() error {
	if err := errstrict.SendEntry(nil); err != nil {
		return err
	}
	return errstrict.AckDurable(7)
}

// Disconnect handles both wire-transport teardown errors.
func Disconnect() error {
	if err := errstrict.FlushFrames(); err != nil {
		return err
	}
	return errstrict.CloseConn()
}

// Handshake returns the frame codec's write error to its caller.
func Handshake() error {
	return errstrict.Write(1, nil)
}
