package des

import "testing"

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
