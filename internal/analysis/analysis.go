// Package analysis provides the operational-law and queueing-theoretic
// baselines behind the paper's workload derivation (§4.2, citing Menasce,
// Dowdy & Almeida): utilizations, saturation points, an analytic
// waiting-time estimate, and per-bag makespan lower bounds used as
// simulation sanity checks. The demand D they take is workload.Demand.
package analysis

import (
	"fmt"
	"math"
)

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
