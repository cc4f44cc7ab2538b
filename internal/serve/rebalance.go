package serve

// Cross-shard rebalancing: the sharded approximation of the paper's
// globally-coupled policies. FairShare's global rule gives each bag an
// equal share of all machines; LongIdle's gives the next machine to the
// globally longest-idle task. A shard alone sees neither the global bag
// count nor the global idle maximum, so every Rebalance interval the
// server's periodic step (tick) collects one coarse core.DemandSummary per
// shard (each under its own lock, one at a time — never a global stop) and
// reweights the worker ring so shards with outsized demand attract more of
// the worker population. Individual dispatch decisions stay shard-local and
// knowledge-free; only capacity moves, and only at idle-fetch boundaries.
//
// The computation is pure integer/float arithmetic over the summaries in
// shard-index order, so a fixed request sequence yields a bit-identical
// weight trajectory — the seeded golden determinism test depends on that.

import (
	"botgrid/internal/core"
	ring "botgrid/internal/shard"
)

// rebalancing reports whether this server rebalances: only a sharded
// plane under a globally-coupled policy needs it.
func (s *Server) rebalancing() bool {
	if len(s.shards) <= 1 || s.cfg.Rebalance < 0 {
		return false
	}
	return s.cfg.Policy == core.FairShare || s.cfg.Policy == core.LongIdle
}

// rebalance performs one rebalance round: collect per-shard demand
// summaries, derive weights, swap in the reweighted ring. tick runs one
// every cfg.Rebalance; tests (the golden determinism test in particular)
// call it directly.
func (s *Server) rebalance() {
	demands := make([]core.DemandSummary, len(s.shards))
	for i, sh := range s.shards {
		demands[i] = sh.demand()
	}
	weights := rebalanceWeights(s.cfg.Policy, demands)
	s.ring.Store(ring.NewRing(len(s.shards), weights))
	s.rebalances.Add(1)
}

// rebalanceWeights turns per-shard demand summaries into ring weights.
// Each shard's demand score gets a small uniform floor (so an empty plane
// stays uniform and no shard is starved of the capacity it needs to make
// progress), then weights scale proportionally around BaseVnodes and are
// clamped to [MinVnodes, MaxVnodes].
func rebalanceWeights(policy core.PolicyKind, demands []core.DemandSummary) []int {
	n := len(demands)
	scores := make([]float64, n)
	total := 0.0
	for i, d := range demands {
		var sc float64
		switch policy {
		case core.FairShare:
			// FairShare grants each bag 1/bags of the machines; a shard's
			// fair capacity share is proportional to its bag count.
			sc = float64(d.ActiveBags)
		case core.LongIdle:
			// LongIdle feeds the longest-idle task first; weigh shards by
			// how starved their queue fronts are, tie-broken toward the one
			// holding the global maximum.
			sc = d.SumFrontIdle + d.MaxFrontIdle
		default:
			sc = float64(d.PendingTasks)
		}
		sc += 0.25 // uniform floor
		scores[i] = sc
		total += sc
	}
	weights := make([]int, n)
	for i, sc := range scores {
		w := int(float64(ring.BaseVnodes*n)*sc/total + 0.5)
		if w < ring.MinVnodes {
			w = ring.MinVnodes
		}
		if w > ring.MaxVnodes {
			w = ring.MaxVnodes
		}
		weights[i] = w
	}
	return weights
}
