package core

import (
	"strconv"
	"testing"

	"botgrid/internal/des"
	"botgrid/internal/grid"
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
			if t.State == TaskPending && (best == nil || t.idleKey() > bestKey) {
				best, bestKey = b, t.idleKey()
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

// TestStaleEntryNeverSelectedAfterReuse gives bag A's storage to a new
// bag B and then puts back into the policy's index every entry A's life
// left there. A's entries outrank the live ones (A is the oldest bag, its
// task the longest idle, its remaining work the smallest), so an entry
// that matched again would make the index select B where the rule selects
// C. It cannot match: the stamp and the pending epochs carry over.
func TestStaleEntryNeverSelectedAfterReuse(t *testing.T) {
	for _, kind := range []PolicyKind{FCFSShare, FairShare, SJFKB, LongIdle} {
		t.Run(kind.String(), func(t *testing.T) {
			eng, _, s := fixture(t, []float64{10}, kind, defaultSC(), grid.AlwaysUp, 0)
			s.recycle = true
			var a, b *Bag
			var aTask *Task
			// The entries A's life left in each heap, in the order first seen.
			type heapEntry struct {
				h *lazyHeap[bagRef]
				e lazyEntry[bagRef]
			}
			var oldBags []heapEntry
			var oldIdle []lazyEntry[taskRef]
			seenBag := map[heapEntry]bool{}
			seenIdle := map[lazyEntry[taskRef]]bool{}
			eng.ScheduleAt(0, func(*des.Engine) {
				a = s.Submit(1000, []float64{100}) // runs alone until t=10
				aTask = a.Tasks[0]
			})
			submitAt(eng, s, 1, 1000, []float64{100, 100, 100}, nil)
			eng.ScheduleAt(11, func(*des.Engine) {
				b = s.Submit(1000, []float64{1000})
				if b != a {
					t.Fatal("B did not reuse A's storage")
				}
				_, idle := indexHeaps(s.policy)
				for _, he := range oldBags {
					he.h.es = append(he.h.es, he.e)
					he.h.up(len(he.h.es) - 1)
				}
				for _, e := range oldIdle {
					idle.es = append(idle.es, e)
					idle.up(len(idle.es) - 1)
				}
			})
			for eng.Step() {
				if b == nil {
					bags, idle := indexHeaps(s.policy)
					for _, h := range bags {
						for _, e := range h.es {
							if he := (heapEntry{h, e}); e.item.b == a && !seenBag[he] {
								seenBag[he] = true
								oldBags = append(oldBags, he)
							}
						}
					}
					for _, e := range idle.es {
						if e.item.t == aTask && !seenIdle[e] {
							seenIdle[e] = true
							oldIdle = append(oldIdle, e)
						}
					}
				}
				s.CheckInvariants()
				checkIndex(t, kind, s)
			}
			if s.Completed() != 3 {
				t.Fatalf("completed %d/3 bags", s.Completed())
			}
			if len(oldBags)+len(oldIdle) == 0 {
				t.Fatal("A's life left no index entries to replay")
			}
		})
	}
}

// indexHeaps returns the lazy heaps of an indexed policy; idle is an
// empty stand-in for the policies without a task index.
func indexHeaps(p Policy) (bags []*lazyHeap[bagRef], idle *lazyHeap[taskRef]) {
	idle = new(lazyHeap[taskRef])
	switch p := p.(type) {
	case *fcfsShare:
		bags = []*lazyHeap[bagRef]{&p.idx.pend, &p.idx.repl}
	case *fairShare:
		bags = []*lazyHeap[bagRef]{&p.idx.pend, &p.idx.repl}
	case *sjfKB:
		bags = []*lazyHeap[bagRef]{&p.idx.pend, &p.idx.repl}
	case *longIdle:
		bags, idle = []*lazyHeap[bagRef]{&p.repl}, &p.idle
	}
	return bags, idle
}
