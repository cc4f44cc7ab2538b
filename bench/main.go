// Command bench is the repository's one benchmark: it drives the simulator
// and the dispatch plane through seven named workloads inside this single
// process, prints every metric of BENCHMARK.json by name with its unit,
// checks the outputs, and exits non-zero when a check fails. See README.md
// in this directory for the workloads, the metrics and how time is
// attributed to layers from outside the measured program.
//
//	go run ./bench                                   every workload, untraced
//	go run ./bench -workload serve-wire -trace 1     one workload, per-layer metrics
//	go run ./bench -compare base.jsonl new.jsonl     regression verdict per metric
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

func main() {
	// A killed `go run` parent would otherwise leave this process behind:
	// notice the re-parenting and leave.
	go func() {
		parent := os.Getppid()
		for os.Getppid() == parent {
			time.Sleep(500 * time.Millisecond)
		}
		fmt.Fprintln(os.Stderr, "bench: parent process is gone, exiting")
		os.Exit(3)
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the command's flags.
type options struct {
	workloads string
	seed      uint64
	seconds   int
	trace     int
	size      string
	out       string
	traceOut  string
	compare   bool
}

// run is main without the process exit, so the smoke test can call it. It
// returns the exit code: 0 only when every workload ran, every operation
// succeeded and every check passed.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workloads, "workload", "", "comma-separated workload names (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 0, "measured time the fixed work is sized for on the reference host (default: run_seconds of BENCHMARK.json)")
	// An int, not a bool: the driver passes "--trace 0" and "--trace 1" as
	// two arguments, which Go's boolean flags do not accept.
	fs.IntVar(&o.trace, "trace", 0, "1 switches the bench's decorators on and reports the per-layer metrics")
	fs.StringVar(&o.size, "size", "full", "full (scaled by -seconds) or smoke (well under a second per workload)")
	fs.StringVar(&o.out, "out", "", "append one JSON result per workload to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare base.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if o.size != "full" && o.size != "smoke" {
		fmt.Fprintf(stderr, "bench: -size %q: want full or smoke\n", o.size)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace %d: want 0 or 1\n", o.trace)
		return 2
	}
	selected, err := selectWorkloads(spec, o.workloads)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	host := hostInfo()
	fmt.Fprintf(stdout, "bench: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, size %s, seconds %d, trace %d\n",
		host.Nproc, host.GOMAXPROCS, host.GoVersion, host.Commit, o.seed, o.size, o.seconds, o.trace)

	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	code := 0
	for i, w := range selected {
		if tr != nil {
			tr.run = uint64(i + 1)
		}
		e := &env{
			seed:   o.seed,
			nproc:  host.Nproc,
			sz:     sizesFor(o.size, o.seconds),
			tr:     tr,
			spec:   spec,
			stderr: stderr,
		}
		res, err := runWatched(ctx, w, e, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.Host = host
		res.print(stdout, spec)
		if o.out != "" {
			if err := appendResult(o.out, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if !res.Correct || res.Failed != 0 {
			code = 1
		}
	}
	if tr != nil && o.traceOut != "" {
		if err := tr.writeFile(o.traceOut); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runWatched runs one workload under its deadline. A workload that is still
// running when the deadline passes, or when a signal arrives, has its
// goroutines dumped to stderr; it then gets a grace period to tear down
// before the process gives up on it.
func runWatched(ctx context.Context, w *workload, e *env, o options) (*runResult, error) {
	// Four times the expected time: set-ups, measured segments and checks
	// together take about twice -seconds, traced runs somewhat more. The
	// contract wants every run over within 180 s.
	deadline := time.Duration(8*o.seconds+40) * time.Second
	if deadline > 170*time.Second {
		deadline = 170 * time.Second
	}
	wctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	type outcome struct {
		res *runResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runWorkload(wctx, w, e)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		return out.res, out.err
	case <-wctx.Done():
	}
	fmt.Fprintf(e.stderr, "bench: workload %s stopped (%v); goroutines:\n", w.name, context.Cause(wctx))
	pprof.Lookup("goroutine").WriteTo(e.stderr, 1)
	select {
	case out := <-done:
		if out.err == nil {
			out.err = fmt.Errorf("stopped: %w", context.Cause(wctx))
		}
		return nil, out.err
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("did not tear down within 10s of %w", context.Cause(wctx))
	}
}

// host describes where a result was measured.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	return host{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(),
	}
}

// gitHead resolves the checked-out commit by reading .git directly — the
// bench starts no child process, so no `git rev-parse`. Outside a git
// checkout (the driver's copies are plain directories) it is "unknown".
func gitHead() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(root + "/.git/HEAD")
		if err != nil {
			continue
		}
		ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !ok {
			return strings.TrimSpace(string(head))
		}
		if sha, err := os.ReadFile(root + "/.git/" + ref); err == nil {
			return strings.TrimSpace(string(sha))
		}
		if packed, err := os.ReadFile(root + "/.git/packed-refs"); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, ok := strings.CutSuffix(line, " "+ref); ok {
					return sha
				}
			}
		}
	}
	return "unknown"
}
