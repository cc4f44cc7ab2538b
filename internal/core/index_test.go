package core

import (
	"strconv"
	"testing"
)

// refSelect is the rule an indexed policy implements, as the linear scan
// over the scheduler's bags that the policy ran before its index existed.
// ok is false for the policies it does not cover: FCFS-Excl needs no index,
// and SelectBag advances RR's and RR-NRF's cursor and Random's RNG, so a
// second selection cannot be compared with the first.
func refSelect(kind PolicyKind, s *Scheduler, thr int) (b *Bag, ok bool) {
	switch kind {
	case FCFSShare:
		return scanInOrder(s, thr), true
	case LongIdle:
		return longIdleScan(s, thr), true
	case FairShare:
		var best *Bag
		for _, b := range s.bags {
			if !b.Schedulable(thr) {
				continue
			}
			if best == nil || b.running < best.running {
				best = b
			}
		}
		return best, true
	case SJFKB:
		var best *Bag
		for _, b := range s.bags {
			if !b.Schedulable(thr) {
				continue
			}
			if best == nil || b.RemainingWork() < best.RemainingWork() {
				best = b
			}
		}
		return best, true
	}
	return nil, false
}

// scanInOrder is the linear FCFS-Share selection.
func scanInOrder(s *Scheduler, threshold int) *Bag {
	for _, b := range s.bags {
		if b.Schedulable(threshold) {
			return b
		}
	}
	return nil
}

// scanReplicable returns the oldest bag with a replicable running task.
func scanReplicable(s *Scheduler, threshold int) *Bag {
	for _, b := range s.bags {
		if b.replicable(threshold) != nil {
			return b
		}
	}
	return nil
}

// longIdleScan is the linear LongIdle selection.
func longIdleScan(s *Scheduler, threshold int) *Bag {
	var best *Bag
	bestKey := 0.0
	for _, b := range s.bags {
		for _, t := range b.Tasks {
			if t.State == TaskPending && (best == nil || t.heapKey > bestKey) {
				best, bestKey = b, t.heapKey
			}
		}
	}
	if best != nil {
		return best
	}
	return scanReplicable(s, threshold)
}

// checkIndex fails the test when s's policy selects a different bag than
// refSelect at either threshold the dispatch loop presents: 1 and the
// configured one. It is a no-op for the policies refSelect does not cover.
func checkIndex(t *testing.T, kind PolicyKind, s *Scheduler) {
	t.Helper()
	for _, thr := range []int{1, s.cfg.Threshold} {
		want, ok := refSelect(kind, s, thr)
		if !ok {
			return
		}
		if got := s.policy.SelectBag(s, thr); got != want {
			t.Fatalf("t=%v threshold %d: %s index selects bag %s, scan selects %s",
				s.Now(), thr, kind, bagName(got), bagName(want))
		}
	}
}

func bagName(b *Bag) string {
	if b == nil {
		return "none"
	}
	return strconv.Itoa(b.ID)
}
