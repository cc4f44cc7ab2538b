// Package atomicpos is the caught-positive fixture for the atomics rule:
// the two atomic misuses the compiler and go vet both accept.
package atomicpos

import "sync/atomic"

// Router mirrors the serve layer's lockless router shape.
type Router struct {
	ring  atomic.Pointer[Ring]
	slots atomic.Int64
	// hits is a plain field made atomic at one site only.
	hits int64
}

// Ring is the swapped-in routing table.
type Ring struct{ N int }

// Install is the legal pattern: method calls on typed atomics.
func (r *Router) Install(n *Ring, delta int64) {
	r.ring.Store(n)
	r.slots.Add(delta)
}

// Observe counts through a package-level sync/atomic function, which
// leaves every other access to hits plain.
func (r *Router) Observe() {
	atomic.AddInt64(&r.hits, 1) // want atomics
}

// Reset overwrites the shared counter non-atomically.
func (r *Router) Reset() {
	r.slots = atomic.Int64{} // want atomics
}
