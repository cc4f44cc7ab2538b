package core

import (
	"fmt"
	"math"
	"sort"

	"botgrid/internal/rng"
)

// Policy is a bag-selection policy: it chooses, among the active bags, the
// one from which the next task (or replica) will be dispatched. All the
// paper's policies are knowledge-free — they inspect only queue state, never
// machine speeds or task durations; SJF-KB is the deliberate knowledge-based
// exception used as a baseline.
type Policy interface {
	// Name returns the policy's display name.
	Name() string
	// SelectBag returns the bag to serve next under the given replication
	// threshold, or nil when no bag can use another machine. s is the
	// scheduler the policy serves and threshold is Threshold(base) for one
	// of the two bases its dispatch loop uses: the configured threshold,
	// or 1 under dynamic replication (see index.go).
	SelectBag(s *Scheduler, threshold int) *Bag
	// Threshold maps the configured replication threshold to the
	// policy's effective one (FCFS-Excl raises it to "unlimited").
	Threshold(base int) int
}

// PolicyKind identifies a bag-selection policy.
type PolicyKind int

const (
	// FCFSExcl is First Come First Served - Exclusive: the whole grid is
	// dedicated to the oldest incomplete bag, with unlimited replication.
	FCFSExcl PolicyKind = iota
	// FCFSShare is First Come First Served - Shared: machines flow to
	// the next bag in arrival order once earlier bags have no pending
	// (replica-less) task.
	FCFSShare
	// RR is Round Robin over the bag queues in fixed circular order.
	RR
	// RRNRF is Round Robin - No Replica First: bags with no running task
	// instance are served before the circular order resumes.
	RRNRF
	// LongIdle serves the bag holding the task with the largest
	// accumulated replica-less waiting time.
	LongIdle
	// Random picks uniformly among schedulable bags (extension; the
	// paper notes RR is equivalent in distribution to random selection).
	Random
	// FairShare serves the schedulable bag holding the fewest running
	// replicas (extension).
	FairShare
	// SJFKB serves the schedulable bag with the least remaining work — a
	// knowledge-based baseline (extension; cf. the paper's future work).
	SJFKB
)

// Kinds lists every built-in policy kind; the first five are the paper's.
var Kinds = []PolicyKind{FCFSExcl, FCFSShare, RR, RRNRF, LongIdle, Random, FairShare, SJFKB}

// PaperKinds lists the five policies evaluated in the paper, in the order
// the figures present them.
var PaperKinds = []PolicyKind{FCFSExcl, FCFSShare, RR, RRNRF, LongIdle}

// String returns the paper's name for the policy.
func (k PolicyKind) String() string {
	switch k {
	case FCFSExcl:
		return "FCFS-Excl"
	case FCFSShare:
		return "FCFS-Share"
	case RR:
		return "RR"
	case RRNRF:
		return "RR-NRF"
	case LongIdle:
		return "LongIdle"
	case Random:
		return "Random"
	case FairShare:
		return "FairShare"
	case SJFKB:
		return "SJF-KB"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// ParsePolicy maps a policy name (as produced by String) back to its kind.
func ParsePolicy(name string) (PolicyKind, error) {
	for _, k := range Kinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown policy %q", name)
}

// NewPolicy instantiates a policy. The stream is consumed only by Random;
// it may be nil for the deterministic policies. Policy instances are
// stateful (selection indexes, cursors, RNG streams) and must serve at most
// one Scheduler.
func NewPolicy(k PolicyKind, str *rng.Stream) Policy {
	switch k {
	case FCFSExcl:
		return fcfsExcl{}
	case FCFSShare:
		return &fcfsShare{}
	case RR:
		return &roundRobin{lastID: -1}
	case RRNRF:
		return &roundRobin{noReplicaFirst: true, lastID: -1}
	case LongIdle:
		return &longIdle{}
	case Random:
		if str == nil {
			panic("core: Random policy needs a stream")
		}
		return &randomPolicy{str: str}
	case FairShare:
		return &fairShare{}
	case SJFKB:
		return &sjfKB{}
	default:
		panic(fmt.Sprintf("core: unknown policy kind %d", int(k)))
	}
}

// dualIndex is the shared core of the indexed heap policies: two lazy
// bag-heaps covering the two thresholds the dispatch loop can present —
// pend holds bags with a pending task (schedulable under any threshold,
// including the dynamic-replication threshold 1) and repl holds bags whose
// least-replicated running task sits below the configured base threshold.
// Their union is exactly the schedulable set under the base threshold.
type dualIndex struct {
	base int
	pend lazyHeap[bagRef]
	repl lazyHeap[bagRef]
}

func (d *dualIndex) attachTo(s *Scheduler) {
	d.base = s.cfg.Threshold
	d.pend.reset()
	d.repl.reset()
}

// publish re-indexes b under the given selection keys; called from
// bagChanged after b's stamp was bumped.
func (d *dualIndex) publish(b *Bag, key float64, tie uint64) {
	if b.HasPending() {
		d.pend.push(key, tie, bagRef{b.stamp, b})
	}
	if b.minRunReplicas() < d.base {
		d.repl.push(key, tie, bagRef{b.stamp, b})
	}
}

// selectMin returns the minimum-keyed schedulable bag under thr, which is
// 1 or the base threshold, or nil when there is none.
//
//botlint:hotpath
func (d *dualIndex) selectMin(thr int) *Bag {
	pe, pok := d.pend.peek() // pe.item.b is nil when !pok
	if thr == 1 {
		return pe.item.b
	}
	re, rok := d.repl.peek()
	switch {
	case !rok:
		return pe.item.b
	case !pok:
		return re.item.b
	case pe.key < re.key || (pe.key == re.key && pe.tie <= re.tie):
		return pe.item.b
	}
	return re.item.b
}

// fcfsExcl dedicates the grid to the oldest incomplete bag. Its unlimited
// replication threshold makes that bag schedulable until completion, so no
// machine is ever yielded to a younger bag. The oldest bag is s.bags[0], so
// the policy needs no index.
type fcfsExcl struct{}

func (fcfsExcl) Name() string { return FCFSExcl.String() }

func (fcfsExcl) Threshold(int) int { return math.MaxInt }

//botlint:hotpath
func (fcfsExcl) SelectBag(s *Scheduler, threshold int) *Bag {
	if len(s.bags) == 0 {
		return nil
	}
	if b := s.bags[0]; b.Schedulable(threshold) {
		return b
	}
	return nil
}

// fcfsShare applies strict FCFS priority among bags: a machine flows to a
// younger bag only when WQR-FT cannot use it for any older bag — neither a
// pending task nor a replica below the threshold ("FCFS-based strategies
// use the exceeding machines to create many replicas for the tasks of the
// same BoT (the oldest one)", §4.3). Within the selected bag WQR-FT still
// serves pending tasks before replicating, and failed-task resubmissions
// sit at the front of their bag's queue, so an older bag's restart replica
// automatically precedes younger bags' work.
//
// Selection is the minimum bag ID over the schedulability index.
type fcfsShare struct {
	idx dualIndex
}

func (*fcfsShare) Name() string { return FCFSShare.String() }

func (*fcfsShare) Threshold(base int) int { return base }

func (p *fcfsShare) attach(s *Scheduler) {
	p.idx.attachTo(s)
	for _, b := range s.bags {
		p.bagChanged(b)
	}
}

func (p *fcfsShare) bagChanged(b *Bag) { p.idx.publish(b, float64(b.ID), 0) }

func (p *fcfsShare) taskQueued(*Task) {}

//botlint:hotpath
func (p *fcfsShare) SelectBag(_ *Scheduler, threshold int) *Bag {
	return p.idx.selectMin(threshold)
}

// roundRobin inspects bag queues in fixed circular order; with
// noReplicaFirst it first serves bags that have no running task instance,
// suspending the circular order as the paper's RR-NRF prescribes.
//
// The circular cursor resumes after the most recently served bag ID: the
// resume position is found by binary search over the ID-ordered bag list
// and candidate bags are probed with the O(1) schedulability state, so a
// selection costs O(log n) plus one probe per skipped saturated bag.
// RR-NRF's starved set (active bags with no running replica — always
// schedulable) is a lazy min-ID heap.
type roundRobin struct {
	noReplicaFirst bool
	lastID         int // bag ID served most recently
	starved        lazyHeap[bagRef]
}

func (p *roundRobin) Name() string {
	if p.noReplicaFirst {
		return RRNRF.String()
	}
	return RR.String()
}

func (p *roundRobin) Threshold(base int) int { return base }

func (p *roundRobin) attach(s *Scheduler) {
	p.starved.reset()
	for _, b := range s.bags {
		p.bagChanged(b)
	}
}

func (p *roundRobin) bagChanged(b *Bag) {
	if p.noReplicaFirst && b.running == 0 && !b.Complete() {
		p.starved.push(float64(b.ID), 0, bagRef{b.stamp, b})
	}
}

func (p *roundRobin) taskQueued(*Task) {}

//botlint:hotpath
func (p *roundRobin) SelectBag(s *Scheduler, threshold int) *Bag {
	n := len(s.bags)
	if n == 0 {
		return nil
	}
	if p.noReplicaFirst {
		// Serve starved bags (no running instance) first, oldest first.
		if e, ok := p.starved.peek(); ok && e.item.b.Schedulable(threshold) {
			return e.item.b
		}
	}
	// Resume the circular order after the most recently served bag. Bags
	// are kept in arrival (ID) order.
	//botlint:ignore hotpath -- sort.Search does not retain its predicate, so the closure stays on the stack; BenchmarkDispatchDecision pins RR at 0 allocs/op
	start := sort.Search(n, func(i int) bool { return s.bags[i].ID > p.lastID })
	if start == n {
		start = 0 // every bag has ID <= lastID: wrap
	}
	for i := 0; i < n; i++ {
		b := s.bags[(start+i)%n]
		if b.Schedulable(threshold) {
			p.lastID = b.ID
			return b
		}
	}
	return nil
}

// longIdle picks the bag whose pending task has waited replica-less the
// longest; when no pending task exists anywhere it falls back to
// FCFS-Share's replication order.
//
// The primary choice is the top of a global lazy heap over pending tasks
// ordered (frozen idle key desc, bag ID asc, task ID asc; see pushIdle) —
// idle-time differences between pending tasks are time-invariant, so the
// frozen keys rank tasks by live IdleTime at any instant. The fallback is
// a lazy min-ID heap over bags with a replicable running task.
type longIdle struct {
	base int
	idle lazyHeap[taskRef]
	repl lazyHeap[bagRef]
}

func (*longIdle) Name() string { return LongIdle.String() }

func (*longIdle) Threshold(base int) int { return base }

func (p *longIdle) attach(s *Scheduler) {
	p.base = s.cfg.Threshold
	p.idle.reset()
	p.repl.reset()
	for _, b := range s.bags {
		p.bagChanged(b)
		for _, t := range b.Tasks {
			if t.State == TaskPending {
				pushIdle(&p.idle, t)
			}
		}
	}
}

func (p *longIdle) bagChanged(b *Bag) {
	if b.minRunReplicas() < p.base {
		p.repl.push(float64(b.ID), 0, bagRef{b.stamp, b})
	}
}

func (p *longIdle) taskQueued(t *Task) { pushIdle(&p.idle, t) }

//botlint:hotpath
func (p *longIdle) SelectBag(_ *Scheduler, threshold int) *Bag {
	if e, ok := p.idle.peek(); ok {
		// Ties go to the older bag (lower ID), matching the paper's
		// observation that LongIdle behaves like FCFS-Share while the
		// oldest bag still has replica-less tasks.
		return e.item.t.Bag
	}
	// No pending task anywhere: replicate in FCFS order. Below the base
	// threshold, i.e. at 1, every running task already has its replica.
	if threshold != p.base {
		return nil
	}
	e, _ := p.repl.peek() // e.item.b is nil when no bag is replicable
	return e.item.b
}

// randomPolicy picks uniformly among schedulable bags. It keeps the linear
// scan: collecting the full schedulable set is what defines its RNG stream
// consumption, and the O(1) schedulability probes already make the scan
// cheap.
type randomPolicy struct {
	str     *rng.Stream
	scratch []*Bag
}

func (p *randomPolicy) Name() string { return Random.String() }

func (p *randomPolicy) Threshold(base int) int { return base }

//botlint:hotpath
func (p *randomPolicy) SelectBag(s *Scheduler, threshold int) *Bag {
	p.scratch = p.scratch[:0]
	for _, b := range s.bags {
		if b.Schedulable(threshold) {
			p.scratch = append(p.scratch, b)
		}
	}
	if len(p.scratch) == 0 {
		return nil
	}
	return p.scratch[p.str.IntN(len(p.scratch))]
}

// fairShare picks the schedulable bag with the fewest running replicas
// (ties to the older bag): the minimum of the schedulability index under
// key (running replicas, bag ID).
type fairShare struct {
	idx dualIndex
}

func (*fairShare) Name() string { return FairShare.String() }

func (*fairShare) Threshold(base int) int { return base }

func (p *fairShare) attach(s *Scheduler) {
	p.idx.attachTo(s)
	for _, b := range s.bags {
		p.bagChanged(b)
	}
}

func (p *fairShare) bagChanged(b *Bag) { p.idx.publish(b, float64(b.running), uint64(b.ID)) }

func (p *fairShare) taskQueued(*Task) {}

//botlint:hotpath
func (p *fairShare) SelectBag(_ *Scheduler, threshold int) *Bag {
	return p.idx.selectMin(threshold)
}

// sjfKB picks the schedulable bag with the least remaining work (ties to
// the older bag): the minimum of the schedulability index under key
// (remaining work, bag ID). It is knowledge-based: remaining work is
// exactly what a knowledge-free scheduler cannot know.
type sjfKB struct {
	idx dualIndex
}

func (*sjfKB) Name() string { return SJFKB.String() }

func (*sjfKB) Threshold(base int) int { return base }

func (p *sjfKB) attach(s *Scheduler) {
	p.idx.attachTo(s)
	for _, b := range s.bags {
		p.bagChanged(b)
	}
}

func (p *sjfKB) bagChanged(b *Bag) { p.idx.publish(b, b.RemainingWork(), uint64(b.ID)) }

func (p *sjfKB) taskQueued(*Task) {}

//botlint:hotpath
func (p *sjfKB) SelectBag(_ *Scheduler, threshold int) *Bag {
	return p.idx.selectMin(threshold)
}

var (
	_ indexedPolicy = (*fcfsShare)(nil)
	_ indexedPolicy = (*roundRobin)(nil)
	_ indexedPolicy = (*longIdle)(nil)
	_ indexedPolicy = (*fairShare)(nil)
	_ indexedPolicy = (*sjfKB)(nil)
)
