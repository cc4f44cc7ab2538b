package journal

import "math/rand"

// GeneratedStream returns the first n records streamGen writes from seed
// on a grid of the given size: a log a live server could have written.
// The tests in package journal_test recover such logs through the
// service.
func GeneratedStream(seed int64, machines, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	g := &streamGen{intn: rng.Intn, machines: machines}
	st := NewState()
	out := make([]Record, 0, n)
	for range n {
		r := g.next(st)
		if err := (*linearState)(st).Apply(&r); err != nil {
			panic(err)
		}
		out = append(out, r)
	}
	return out
}
