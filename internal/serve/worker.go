package serve

import (
	"context"
	"sync/atomic"
	"time"

	"botgrid/internal/rng"
)

// WorkerConfig tunes a SimWorker.
type WorkerConfig struct {
	// ID names the worker (its lease identity on the server).
	ID string
	// Power is the worker's computing power (default 10): a task of W
	// reference-seconds computes for W/Power × TimeScale wall seconds.
	Power float64
	// TimeScale compresses reference time into wall time (default 0:
	// tasks complete instantly — pure protocol hammering).
	TimeScale float64
	// FailProb is the per-task probability of reporting StatusFailed
	// instead of completing (injected application failure).
	FailProb float64
	// CrashProb is the per-assignment probability of going silent with
	// the work unreported — the desktop-grid owner pulling the plug. The
	// worker loop returns; the server notices at lease expiry.
	CrashProb float64
	// RequestLatency delays every request (injected network latency).
	RequestLatency time.Duration
	// Poll is the idle re-poll interval when the server has no work
	// (default: the server's retry hint).
	Poll time.Duration
}

// SimWorker is a simulated desktop-grid worker: it fetches task replicas
// over HTTP, "computes" them by sleeping scaled reference time, and
// reports results — with configurable failure, crash and latency
// injection. The load generator, the examples and the integration tests
// all drive the live server with fleets of SimWorkers.
type SimWorker struct {
	cfg WorkerConfig
	c   *Client
	str *rng.Stream

	// RTT, when non-nil, receives one sample per fetch round-trip.
	RTT *LatencyRecorder

	crashed atomic.Bool
}

// NewSimWorker wires a worker to a client. str drives failure injection
// and may be nil when FailProb and CrashProb are zero.
func NewSimWorker(c *Client, cfg WorkerConfig, str *rng.Stream) *SimWorker {
	if cfg.Power <= 0 {
		cfg.Power = 10
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	return &SimWorker{cfg: cfg, c: c, str: str}
}

// Crashed reports whether the worker went silent via CrashProb.
func (w *SimWorker) Crashed() bool { return w.crashed.Load() }

// Run polls for work until ctx is cancelled (returning nil), the worker
// crashes (returning nil with Crashed set), or a request errors.
func (w *SimWorker) Run(ctx context.Context) error {
	for {
		if err := sleepCtx(ctx, w.cfg.RequestLatency); err != nil {
			return nil
		}
		start := time.Now()
		resp, err := w.c.Fetch(w.cfg.ID, w.cfg.Power)
		if w.RTT != nil {
			w.RTT.Observe(time.Since(start))
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if !resp.Assigned {
			wait := w.cfg.Poll
			if resp.RetryMs > 0 && w.cfg.Poll == 10*time.Millisecond {
				wait = time.Duration(resp.RetryMs) * time.Millisecond
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return nil
			}
			continue
		}
		a := resp.Assignment
		if w.str != nil && w.cfg.CrashProb > 0 && w.str.Float64() < w.cfg.CrashProb {
			w.crashed.Store(true)
			return nil
		}
		// Compute: sleep the task's scaled duration.
		d := time.Duration(a.Work / w.cfg.Power * w.cfg.TimeScale * float64(time.Second))
		if err := sleepCtx(ctx, d); err != nil {
			return nil // ctx cancelled mid-computation
		}
		status := StatusDone
		if w.str != nil && w.cfg.FailProb > 0 && w.str.Float64() < w.cfg.FailProb {
			status = StatusFailed
		}
		if err := sleepCtx(ctx, w.cfg.RequestLatency); err != nil {
			return nil
		}
		if _, err := w.c.Report(w.cfg.ID, a.Replica, status); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
	}
}

// sleepCtx sleeps d or until ctx is done (returning its error).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
