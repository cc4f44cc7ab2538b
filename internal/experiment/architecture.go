package experiment

import (
	"botgrid/internal/core"
	"botgrid/internal/multisite"
)

// AblationArchitecture is experiment A11: the centralized scheduler the
// paper argues for against distributed multi-site variants (cf. Beaumont
// et al., the paper's related work [4]). All variants share WQR-FT,
// checkpointing and the availability model; only the scheduling
// architecture differs. Run on Hom-HighAvail at U=0.50 with the 25000 s
// granularity, where bags (100 tasks) match the whole grid's machine count
// and partitioning hurts most.
func AblationArchitecture(o Options) (*AblationResult, error) {
	o = o.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	f, err := FigureByID("F1a")
	if err != nil {
		return nil, err
	}
	const gran = 25000.0

	variants := []struct {
		label    string
		sites    int
		dispatch multisite.Dispatch
	}{
		{"centralized (paper)", 0, 0},
		{"2 sites, rr-site", 2, multisite.RoundRobinSite},
		{"5 sites, rr-site", 5, multisite.RoundRobinSite},
		{"5 sites, least-loaded", 5, multisite.LeastLoadedSite},
	}
	labels := make([]string, len(variants))
	for i, v := range variants {
		labels[i] = v.label
	}
	return tabulate("A11", "centralized vs distributed sites (Hom-HighAvail, U=0.50, gran=25000)", o, labels,
		func(v int, r *core.Runner, rep int) (core.Result, error) {
			base := o.CellConfig(f, gran, core.FCFSShare, rep)
			if variants[v].sites == 0 {
				return r.Run(base)
			}
			res, err := multisite.Run(multisite.Config{
				Seed:       base.Seed,
				Grid:       base.Grid,
				Sites:      variants[v].sites,
				Dispatch:   variants[v].dispatch,
				Policy:     base.Policy,
				Sched:      base.Sched,
				Checkpoint: base.Checkpoint,
				Workload:   base.Workload,
				NumBoTs:    base.NumBoTs,
				Warmup:     base.Warmup,
			})
			// TasksCompleted stays 0: multisite counts no replicas, so the
			// row's replicas/task is NaN and prints as "-".
			return core.Result{Bags: res.Bags, Saturated: res.Saturated}, err
		})
}
