// Package checkpoint models the checkpoint servers of the paper's system
// model. WQR-FT periodically saves task checkpoints to a server; after a
// machine failure a new replica restarts from the latest checkpoint instead
// of from scratch. The time to transfer a checkpoint file to or from the
// server is uniform in [240, 720] seconds, and each application checkpoints
// at the interval given by Young's classical first-order formula
// τ = sqrt(2·C·MTBF).
package checkpoint

import (
	"fmt"
	"math"

	"botgrid/internal/rng"
)

// Config describes the checkpoint subsystem.
type Config struct {
	// Enabled turns checkpointing on. WQR (without -FT) runs with it off.
	Enabled bool
	// TransferLo and TransferHi bound the uniform checkpoint transfer
	// time in seconds (paper: 240 and 720).
	TransferLo, TransferHi float64
	// Capacity bounds concurrent transfers on the server; 0 means
	// unlimited — the paper's idealization of "one or more checkpoint
	// servers" without contention. The A7 ablation sweeps this.
	Capacity int
}

// DefaultConfig returns the paper's checkpoint parameters.
func DefaultConfig() Config {
	return Config{Enabled: true, TransferLo: 240, TransferHi: 720}
}

// MeanTransfer returns the expected checkpoint transfer time.
func (c Config) MeanTransfer() float64 { return (c.TransferLo + c.TransferHi) / 2 }

// YoungInterval returns the optimal checkpoint interval for the given
// checkpoint cost and mean time between failures: sqrt(2·C·MTBF). It is
// +Inf (never checkpoint) when MTBF is infinite or the cost is zero with an
// infinite MTBF; it panics on non-positive cost with finite MTBF.
func YoungInterval(cost, mtbf float64) float64 {
	if math.IsInf(mtbf, 1) {
		return math.Inf(1)
	}
	if cost <= 0 || mtbf <= 0 {
		panic(fmt.Sprintf("checkpoint: invalid Young parameters cost=%v mtbf=%v", cost, mtbf))
	}
	return math.Sqrt(2 * cost * mtbf)
}

// OverheadFactor returns the fraction of machine time that does useful work
// when checkpoints of mean cost C are taken every τ seconds: τ/(τ+C).
// It is 1 when τ is infinite. The experiment harness uses it to scale the
// grid's effective power when deriving arrival rates (Eq. 1 of the paper).
func OverheadFactor(interval, cost float64) float64 {
	if math.IsInf(interval, 1) {
		return 1
	}
	if interval <= 0 {
		panic(fmt.Sprintf("checkpoint: invalid interval %v", interval))
	}
	return interval / (interval + cost)
}

// Server hands out checkpoint save/retrieve transfer times. A single
// logical server suffices: the paper assumes "one or more" servers and does
// not model contention on them, only the per-transfer latency.
type Server struct {
	cfg Config
	str *rng.Stream

	saves     int
	retrieves int

	// Contention state (used only when cfg.Capacity > 0).
	active int
	queue  []*Transfer

	// pool recycles Transfer structs: a simulation issues one save or
	// retrieve per checkpoint interval per replica, and allocating each
	// handle fresh made the server the second-largest allocation site of
	// a run. Recycled handles go stale, see Transfer.
	pool []*Transfer
}

// NewServer builds a server drawing transfer times from str.
func NewServer(cfg Config, str *rng.Stream) *Server {
	s := new(Server)
	s.Reset(cfg, str)
	return s
}

// Reset makes s the server NewServer(cfg, str) returns, except that it
// keeps the transfer pool. Call it only once the engine that ran s's
// transfers has been reset: transfers still queued or running are dropped
// with their callbacks, and their handles go stale.
func (s *Server) Reset(cfg Config, str *rng.Stream) {
	if cfg.TransferHi < cfg.TransferLo {
		panic("checkpoint: transfer bounds inverted")
	}
	*s = Server{cfg: cfg, str: str, pool: s.pool}
}

// Enabled reports whether checkpointing is active.
func (s *Server) Enabled() bool { return s.cfg.Enabled }

// Interval returns the Young checkpoint interval for the given MTBF, using
// the configured mean transfer time as the cost. +Inf when disabled.
func (s *Server) Interval(mtbf float64) float64 {
	if !s.cfg.Enabled {
		return math.Inf(1)
	}
	return YoungInterval(s.cfg.MeanTransfer(), mtbf)
}

// SaveTime draws the duration of storing one checkpoint.
func (s *Server) SaveTime() float64 {
	s.saves++
	return s.str.Uniform(s.cfg.TransferLo, s.cfg.TransferHi)
}

// RetrieveTime draws the duration of fetching the latest checkpoint.
func (s *Server) RetrieveTime() float64 {
	s.retrieves++
	return s.str.Uniform(s.cfg.TransferLo, s.cfg.TransferHi)
}

// Stats returns the number of save and retrieve transfers served.
func (s *Server) Stats() (saves, retrieves int) { return s.saves, s.retrieves }
