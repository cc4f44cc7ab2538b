// Package analysis provides the operational-law and queueing-theoretic
// baselines behind the paper's workload derivation (§4.2, citing Menasce,
// Dowdy & Almeida): demands, utilizations, saturation points, analytic
// waiting-time estimates, and per-bag makespan lower bounds used as
// simulation sanity checks.
package analysis

import (
	"fmt"
	"math"
)

// Demand returns D, the grid-seconds of service one BoT requires:
// application size over effective grid power (Eq. 1's denominator).
func Demand(appSize, effectivePower float64) float64 {
	if appSize <= 0 || effectivePower <= 0 {
		panic(fmt.Sprintf("analysis: invalid demand inputs %v/%v", appSize, effectivePower))
	}
	return appSize / effectivePower
}

// Utilization applies the utilization law U = λ·D.
func Utilization(lambda, demand float64) float64 { return lambda * demand }

// SaturationLambda returns the arrival rate at which the grid saturates
// (U = 1): λ_sat = 1/D. Beyond it queues grow without bound — the paper's
// "turnaround grew beyond any reasonable limit".
func SaturationLambda(demand float64) float64 {
	if demand <= 0 {
		panic(fmt.Sprintf("analysis: invalid demand %v", demand))
	}
	return 1 / demand
}

// MG1Wait returns the Pollaczek-Khinchine mean waiting time of an M/G/1
// queue: W = ρ·S·(1+cv²) / (2·(1−ρ)), with S the mean service time and cv²
// the squared coefficient of variation of service times.
//
// Treating the whole Desktop Grid as a single server that processes one
// bag at a time (service time D) models FCFS bag scheduling at small
// granularities, where a bag's tasks saturate every machine; the estimate
// is exact for Poisson arrivals as simulated.
func MG1Wait(lambda, meanService, scv float64) (float64, error) {
	if lambda <= 0 || meanService <= 0 || scv < 0 {
		return 0, fmt.Errorf("analysis: invalid M/G/1 inputs λ=%v S=%v cv²=%v", lambda, meanService, scv)
	}
	rho := lambda * meanService
	if rho >= 1 {
		return math.Inf(1), nil
	}
	return rho * meanService * (1 + scv) / (2 * (1 - rho)), nil
}

// ErlangC returns the probability that an arriving job waits in an M/M/c
// queue with offered load a = λ/μ (in Erlangs). It returns 1 when the
// system is saturated (a >= c).
func ErlangC(c int, offered float64) float64 {
	if c <= 0 || offered < 0 {
		panic(fmt.Sprintf("analysis: invalid Erlang inputs c=%d a=%v", c, offered))
	}
	if offered == 0 {
		return 0
	}
	if offered >= float64(c) {
		return 1
	}
	// Compute iteratively in log-free form: term_k = a^k/k!.
	sum := 0.0
	term := 1.0
	for k := 0; k < c; k++ {
		sum += term
		term *= offered / float64(k+1)
	}
	// term is now a^c/c!.
	last := term * float64(c) / (float64(c) - offered)
	return last / (sum + last)
}

// MMcWait returns the mean waiting time of an M/M/c queue with arrival
// rate λ and per-server mean service time S. Treating machines as the c
// servers and tasks as jobs models the fine-grained limit of the grid.
func MMcWait(lambda, meanService float64, c int) (float64, error) {
	if lambda <= 0 || meanService <= 0 || c <= 0 {
		return 0, fmt.Errorf("analysis: invalid M/M/c inputs λ=%v S=%v c=%d", lambda, meanService, c)
	}
	offered := lambda * meanService
	if offered >= float64(c) {
		return math.Inf(1), nil
	}
	pw := ErlangC(c, offered)
	return pw * meanService / (float64(c) - offered), nil
}

// UniformSCV returns the squared coefficient of variation of a
// U[lo,hi] distribution — the paper's task (and hence bag-demand)
// durations are uniform with ±50 % spread, giving cv² = 1/12 ≈ 0.083 for
// the per-task view.
func UniformSCV(lo, hi float64) float64 {
	if hi <= lo {
		panic(fmt.Sprintf("analysis: invalid uniform bounds [%v,%v]", lo, hi))
	}
	mean := (lo + hi) / 2
	variance := (hi - lo) * (hi - lo) / 12
	return variance / (mean * mean)
}

// MakespanLowerBound returns a lower bound on a bag's makespan on the
// given machine powers, valid for any scheduler without task preemption or
// useful replication gains:
//
//	max( Σwork / Σpower , max work / max power )
//
// The first term is the perfect-packing area bound; the second is the
// critical path of the largest task on the fastest machine.
func MakespanLowerBound(works, powers []float64) float64 {
	if len(works) == 0 || len(powers) == 0 {
		panic("analysis: empty works or powers")
	}
	var totalW, maxW float64
	for _, w := range works {
		if w <= 0 {
			panic(fmt.Sprintf("analysis: invalid work %v", w))
		}
		totalW += w
		if w > maxW {
			maxW = w
		}
	}
	var totalP, maxP float64
	for _, p := range powers {
		if p <= 0 {
			panic(fmt.Sprintf("analysis: invalid power %v", p))
		}
		totalP += p
		if p > maxP {
			maxP = p
		}
	}
	return math.Max(totalW/totalP, maxW/maxP)
}
