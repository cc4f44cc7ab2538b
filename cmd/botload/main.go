// Command botload is the load generator for botserved: it spins up a
// fleet of simulated HTTP workers (with configurable failure and latency
// injection) against a live work-dispatch server, submits a batch of
// Bags-of-Tasks, drives them to completion and reports dispatch
// throughput, replica overhead, fetch round-trip percentiles and the
// server's own scheduling-decision latency percentiles.
//
//	botload -addr 127.0.0.1:8431 -workers 50 -bags 8 -tasks 100
//
// With -addr "" botload starts an in-process server on a loopback port,
// so a single invocation drives the whole dispatch path; -shards runs
// that server's dispatch plane sharded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/rng"
	"botgrid/internal/serve"
)

type options struct {
	addr      string
	addrs     string
	hammer    bool
	policy    string
	workers   int
	power     float64
	bags      int
	tasks     int
	work      float64
	timeScale float64
	failProb  float64
	latency   time.Duration
	lease     time.Duration
	timeout   time.Duration
	seed      uint64
	shards    int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "", "server address; empty starts an in-process server")
	flag.StringVar(&o.addrs, "addrs", "", "comma-separated cluster addresses for -hammer-failover")
	flag.BoolVar(&o.hammer, "hammer-failover", false,
		"drive a replicated cluster instead: tolerate leader redirects and failovers, verify no acked operation is lost")
	flag.StringVar(&o.policy, "policy", "FCFS-Share", "policy for the in-process server")
	flag.IntVar(&o.workers, "workers", 50, "number of simulated workers")
	flag.Float64Var(&o.power, "power", 10, "worker computing power")
	flag.IntVar(&o.bags, "bags", 8, "bags to submit")
	flag.IntVar(&o.tasks, "tasks", 100, "tasks per bag")
	flag.Float64Var(&o.work, "work", 100, "mean task work X; durations are U[0.5X, 1.5X]")
	flag.Float64Var(&o.timeScale, "timescale", 0, "wall seconds per reference second (0: instant tasks)")
	flag.Float64Var(&o.failProb, "fail", 0.01, "per-task injected failure probability")
	flag.DurationVar(&o.latency, "latency", 0, "injected per-request network latency")
	flag.DurationVar(&o.lease, "lease", 30*time.Second, "lease for the in-process server")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Minute, "overall run timeout")
	flag.Uint64Var(&o.seed, "seed", 7, "seed for workload and failure injection")
	flag.IntVar(&o.shards, "shards", 1, "scheduler shards for the in-process server")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one load-generation campaign and writes the report to w.
func run(ctx context.Context, o options, w io.Writer) error {
	ctx, cancel := context.WithTimeout(ctx, o.timeout)
	defer cancel()

	if o.hammer {
		return hammer(ctx, o, w)
	}

	addr := o.addr
	if addr == "" {
		k, err := core.ParsePolicy(o.policy)
		if err != nil {
			return err
		}
		srv, err := serve.NewServer(serve.Config{
			Policy:      k,
			MaxWorkers:  o.workers,
			WorkerPower: o.power,
			Lease:       o.lease,
			RetryMs:     1,
			Seed:        o.seed,
			Shards:      o.shards,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		defer hs.Close()
		addr = ln.Addr().String()
		fmt.Fprintf(w, "in-process server: policy %s, %d shards, on %s\n", k, o.shards, addr)
	}
	c := serve.NewClient("http://" + addr)

	// Submit the workload: o.bags bags of o.tasks tasks with the paper's
	// U[0.5X, 1.5X] durations.
	str := rng.Root(o.seed, "botload-works")
	for i := 0; i < o.bags; i++ {
		works := make([]float64, o.tasks)
		for j := range works {
			works[j] = str.Uniform(0.5*o.work, 1.5*o.work)
		}
		if _, err := c.Submit(o.work, works); err != nil {
			return fmt.Errorf("submit bag %d: %w", i, err)
		}
	}

	// Launch the fleet; every worker feeds one shared RTT recorder.
	rtt := serve.NewLatencyRecorder(1 << 16)
	var wg sync.WaitGroup
	for i := 0; i < o.workers; i++ {
		sw := serve.NewSimWorker(c, serve.WorkerConfig{
			ID:             fmt.Sprintf("load-%03d", i),
			Power:          o.power,
			TimeScale:      o.timeScale,
			FailProb:       o.failProb,
			RequestLatency: o.latency,
			Poll:           time.Millisecond,
		}, rng.Root(o.seed, fmt.Sprintf("botload-worker-%d", i)))
		sw.RTT = rtt
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sw.Run(ctx); err != nil {
				log.Printf("worker error: %v", err)
			}
		}()
	}

	start := time.Now()
	var st serve.StatsResponse
	for {
		var err error
		st, err = c.Stats()
		if err != nil {
			return err
		}
		if st.BagsCompleted >= o.bags {
			break
		}
		if ctx.Err() != nil {
			return fmt.Errorf("run timed out with %d/%d bags complete", st.BagsCompleted, o.bags)
		}
		time.Sleep(20 * time.Millisecond)
	}
	elapsed := time.Since(start)
	cancel()
	wg.Wait()

	report(w, o, st, rtt.Summary(), elapsed)
	return nil
}

// hammer drives a replicated cluster through failovers: submits are
// retried across leader changes, workers keep fetching and reporting
// through redirects and elections, and at the end the leader's state is
// checked against the client's own books — every acked submit must be a
// completed bag, every acked done-report a completed task. The operator
// (or CI) kills leaders while this runs; hammer itself never does.
func hammer(ctx context.Context, o options, w io.Writer) error {
	if o.addrs == "" {
		return errors.New("-hammer-failover requires -addrs")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var bases []string
	for _, a := range strings.Split(o.addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			bases = append(bases, "http://"+a)
		}
	}
	cc := serve.NewClient(bases...)

	// Submit with retries: a submit whose response was lost mid-failover
	// may have landed, so a retry can duplicate the bag — the final wait
	// therefore requires BagsSubmitted == BagsCompleted rather than an
	// exact count. Only acked submissions join the must-survive set.
	str := rng.Root(o.seed, "botload-works")
	acked := 0
	for i := 0; i < o.bags; i++ {
		works := make([]float64, o.tasks)
		for j := range works {
			works[j] = str.Uniform(0.5*o.work, 1.5*o.work)
		}
		for ctx.Err() == nil {
			if _, err := cc.Submit(o.work, works); err != nil {
				time.Sleep(100 * time.Millisecond)
				continue
			}
			acked++
			break
		}
	}
	if acked < o.bags {
		return fmt.Errorf("hammer: submitted %d/%d bags before timeout", acked, o.bags)
	}
	fmt.Fprintf(w, "hammer: %d bags acked by the cluster\n", acked)

	// The fleet: plain pull workers that shrug off dead leaders. An errored
	// report is NOT counted — fetch is idempotent, so if it never landed the
	// next fetch returns the same assignment and the work is redone.
	var ackedDone atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < o.workers; i++ {
		id := fmt.Sprintf("hammer-%03d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				fr, err := cc.Fetch(id, o.power)
				if err != nil {
					time.Sleep(50 * time.Millisecond)
					continue
				}
				if !fr.Assigned {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if o.timeScale > 0 {
					time.Sleep(time.Duration(fr.Assignment.Work / o.power * o.timeScale * float64(time.Second)))
				}
				ack, err := cc.Report(id, fr.Assignment.Replica, serve.StatusDone)
				if err != nil {
					continue
				}
				if ack == serve.AckOK {
					ackedDone.Add(1)
				}
			}
		}()
	}

	start := time.Now()
	var st serve.StatsResponse
	haveStats := false
	for {
		if st2, err := cc.LeaderStats(); err == nil {
			st, haveStats = st2, true
			if st.BagsCompleted >= acked && st.BagsSubmitted == st.BagsCompleted {
				break
			}
		}
		if ctx.Err() != nil {
			cancel()
			wg.Wait()
			if !haveStats {
				return errors.New("hammer: timed out with no leader reachable")
			}
			return fmt.Errorf("hammer: timed out with %d/%d bags complete", st.BagsCompleted, acked)
		}
		time.Sleep(50 * time.Millisecond)
	}
	elapsed := time.Since(start)
	cancel()
	wg.Wait()

	// The books must balance: nothing the cluster acked may be missing.
	if st.BagsCompleted < acked {
		return fmt.Errorf("hammer: acked bags lost: %d acked, %d completed", acked, st.BagsCompleted)
	}
	if done := int(ackedDone.Load()); st.TasksCompleted < done {
		return fmt.Errorf("hammer: acked work lost: %d done-reports acked, %d tasks completed",
			done, st.TasksCompleted)
	}
	fmt.Fprintf(w, "hammer: %d bags drained in %.2fs, %d acked done-reports, %d tasks completed\n",
		acked, elapsed.Seconds(), ackedDone.Load(), st.TasksCompleted)
	if st.Replication != nil {
		fmt.Fprintf(w, "hammer: final leader %s at term %d, commit LSN %d, %d elections seen\n",
			st.Replication.LeaderID, st.Replication.Term, st.Replication.CommitLSN, st.Replication.Elections)
	}
	fmt.Fprintf(w, "hammer: no acked operation lost\n")
	return nil
}

// report renders the campaign summary.
func report(w io.Writer, o options, st serve.StatsResponse, rtt serve.LatencySummary, elapsed time.Duration) {
	sec := elapsed.Seconds()
	fmt.Fprintf(w, "\n%d workers, %d bags x %d tasks, policy %s, drained in %.2fs\n",
		o.workers, o.bags, o.tasks, st.Policy, sec)
	fmt.Fprintf(w, "throughput: %.0f completions/s, %.0f dispatches/s sustained\n",
		float64(st.TasksCompleted)/sec, float64(st.ReplicasStarted)/sec)
	fmt.Fprintf(w, "replica overhead: %.3f replicas started per completed task\n",
		float64(st.ReplicasStarted)/float64(st.TasksCompleted))
	d := st.DecisionLatency
	fmt.Fprintf(w, "decision latency (n=%d): p50 %s  p95 %s  p99 %s  max %s\n",
		d.Count, ms(d.P50), ms(d.P95), ms(d.P99), ms(d.Max))
	fmt.Fprintf(w, "fetch RTT        (n=%d): p50 %s  p95 %s  p99 %s  max %s\n",
		rtt.Count, ms(rtt.P50), ms(rtt.P95), ms(rtt.P99), ms(rtt.Max))
	mean := 0.0
	for _, b := range st.Bags {
		mean += b.Turnaround
	}
	mean /= float64(len(st.Bags))
	fmt.Fprintf(w, "mean bag turnaround: %.3fs wall", mean)
	if o.timeScale > 0 {
		fmt.Fprintf(w, " (%.0f reference seconds)", mean/o.timeScale)
	}
	fmt.Fprintf(w, "\nfailures: %d injected resubmissions, %d lease expiries, %d stale reports\n",
		st.ReplicaFailures, st.LeaseExpiries, st.StaleReports)
}

// ms formats a latency expressed in seconds.
func ms(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
