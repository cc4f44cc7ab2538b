package des

import (
	"math/rand"
	"testing"
)

// FuzzLadderVsHeap is the differential fuzzer for the ladder queue: the
// same fuzzed Schedule/ScheduleAt/Cancel/Step/RunUntil script (see
// runScript) drives the ladder engine and refHeap, the reference binary
// heap, and the two firing traces — which event, at what time, in what
// order — must be identical. The script quantizes delays so same-time ties
// are common, and cancel targets include refs that already fired or went
// stale, so the generation-stamp contract is fuzzed alongside the ordering
// one.
//
// CI runs this as a smoke step next to the journal codec fuzzers; run it
// longer locally with:
//
//	go test ./internal/des/ -run='^$' -fuzz=FuzzLadderVsHeap
func FuzzLadderVsHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, 0, 0})
	// Ties, cancels and a stale-ref cancel after a Step.
	f.Add([]byte{2, 3, 0, 2, 3, 0, 7, 9, 2, 5, 0, 0, 4, 0, 0, 4, 0, 1})
	// Wide spread, then near-future inserts below the bottom window.
	f.Add([]byte{
		0, 255, 255, 0, 128, 0, 0, 0, 16, 5, 0, 0,
		2, 1, 0, 2, 1, 0, 3, 4, 0, 6, 20, 0, 4, 0, 2,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		diffTraces(t, runScript(New(), data), runScript(&refHeap{}, data))
	})
}

// FuzzLadderResetVsHeap holds the ladder's pooled bucket arrays to the
// reference heap across Engine.Reset. One engine runs script a behind a
// wide backlog until a Stop at time stop leaves events queued in every
// tier, and is Reset; then it runs script b behind another backlog, and
// its trace must equal a fresh refHeap's. After the Reset the ladder must
// hold no item in any array it kept: arrays cross Reset through the
// pool, and a stale one would surface in the next run.
//
//	go test ./internal/des/ -run='^$' -fuzz=FuzzLadderResetVsHeap
func FuzzLadderResetVsHeap(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add([]byte{2, 3, 0, 2, 3, 0, 7, 9, 2}, []byte{0, 0, 0, 5, 0, 0}, uint16(4))
	// Random scripts weighted toward clustered and tied schedules.
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 4; i++ {
		a, b := make([]byte, 300), make([]byte, 300)
		r.Read(a)
		r.Read(b)
		for j := 0; j < len(a); j += 3 {
			a[j] = []byte{0, 1, 2, 2, 3, 4, 5, 7, 7, 7}[r.Intn(10)]
			b[j] = a[j]
		}
		f.Add(a, b, uint16(r.Intn(4096)))
	}
	f.Fuzz(func(t *testing.T, a, b []byte, stop uint16) {
		e := New()
		e.ScheduleAt(float64(stop), func(e *Engine) { e.Stop() })
		runScript(e, append(wideBacklog(uint64(stop)), a...))
		e.Reset()
		if _, length := e.lq.retained(); length != 0 {
			t.Fatalf("%d items still held after Reset", length)
		}
		script := append(wideBacklog(uint64(stop)+1), b...)
		diffTraces(t, runScript(e, script), runScript(&refHeap{}, script))
	})
}

// wideBacklog is a runScript prefix that schedules enough events for the
// first refill to spawn a rung wider than narrowRung, the only kind whose
// drained buckets hand arrays to the pool. Delays cluster toward the near
// future, so the early buckets overfill and their arrays cycle through
// the pool's larger classes. seed varies the delays.
func wideBacklog(seed uint64) []byte {
	n := 8 * (narrowRung + 1)
	s := make([]byte, 0, 3*n)
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		hi := uint16(x >> 56)
		s = append(s, 0, byte(hi*hi>>8), byte(x>>48))
	}
	return s
}
