package core

import "time"

// Clock is the scheduler's time source. The simulation supplies the
// virtual des.Engine clock; the live work-dispatch service (internal/serve)
// supplies a WallClock, so the very same Scheduler runs in both virtual and
// real time. Times are float64 seconds from an arbitrary origin, matching
// the simulator's convention.
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
}

// WallClock is a monotonic real-time Clock: Now returns the seconds
// elapsed since the clock was created. It is safe for concurrent use.
type WallClock struct {
	start time.Time
}

// NewWallClock returns a WallClock whose origin is the current instant.
//
//botlint:ignore determinism -- live-mode time source; the simulator never constructs a WallClock, it injects the DES virtual clock
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// NewWallClockAt returns a WallClock measuring from the given origin. The
// live dispatch service uses it after crash recovery: the original epoch is
// persisted with the journal, so recovered times continue the pre-crash
// timeline (downtime included) instead of restarting from zero.
func NewWallClockAt(origin time.Time) *WallClock { return &WallClock{start: origin} }

// Now implements Clock using the monotonic reading of the system clock.
//
//botlint:ignore determinism -- live-mode time source; sim runs read the virtual clock through the same Clock interface
func (c *WallClock) Now() float64 { return time.Since(c.start).Seconds() }
