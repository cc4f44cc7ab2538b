// Package atomicneg is the clean-negative fixture for the atomics rule:
// typed atomics used only through their methods, composite-literal
// initialization, a fresh local declared with :=, and an ordinary field
// accessed freely.
package atomicneg

import "sync/atomic"

// Gate mirrors the cluster gate: a swapped server pointer plus a counter.
type Gate struct {
	srv   atomic.Pointer[Srv]
	moves atomic.Int64
	// name is an ordinary field; plain access stays legal.
	name string
}

// Srv is the swapped-in server.
type Srv struct{ Addr string }

// NewGate initializes through a composite literal, which is exempt: the
// value is not shared yet.
func NewGate(name string) *Gate {
	return &Gate{name: name, moves: atomic.Int64{}}
}

// Serve routes through the pointer's methods.
func (g *Gate) Serve() *Srv { return g.srv.Load() }

// Promote installs a new server and counts the move.
func (g *Gate) Promote(s *Srv) {
	if g.srv.Swap(s) != s {
		g.moves.Add(1)
	}
}

// Tally counts into a fresh local, which nothing else can see yet.
func Tally(k int) int64 {
	n := atomic.Int64{}
	for i := 0; i < k; i++ {
		n.Add(1)
	}
	return n.Load()
}

// Rename writes the ordinary field plainly.
func (g *Gate) Rename(name string) { g.name = name }
