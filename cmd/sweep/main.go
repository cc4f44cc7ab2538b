// Command sweep regenerates the paper's evaluation: every panel of
// Figures 1 and 2 (plus the MedAvail panels described in prose) and the
// ablation studies listed in DESIGN.md.
//
// Examples:
//
//	sweep -figure F1a                 # one panel at paper scale
//	sweep -figure all -quick          # all panels, 10×-scaled quick mode
//	sweep -ablation threshold         # the A1 replication-threshold sweep
//	sweep -figure F2c -chart          # ASCII bar chart instead of a table
//
// The -cpuprofile, -memprofile and -trace flags capture pprof/trace data
// for the whole sweep, written when the run finishes without error:
//
//	sweep -figure F1a -quick -cpuprofile cpu.out
//	go tool pprof cpu.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"botgrid/internal/core"
	"botgrid/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run parses args, runs the requested figures and ablations, and writes
// every rendered result to stdout; progress notes go to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		figureID = fs.String("figure", "", "figure ID (F1a..F2d, FMa..FMd), comma list, or 'all'")
		ablation = fs.String("ablation", "", "ablation study: threshold|dynrep|ckpt|machsel|taskorder|servercap|taskdist|diurnal|suspend|arch|mixed|all")
		quick    = fs.Bool("quick", false, "10×-scaled quick mode (small grid, loose CIs)")
		chart    = fs.Bool("chart", false, "render ASCII bar charts instead of tables")
		format   = fs.String("format", "", "output format: table|chart|csv|json (overrides -chart)")
		svgDir   = fs.String("svg", "", "also write one SVG figure per panel into this directory")
		summary  = fs.Bool("summary", false, "also print per-granularity winners")
		signif   = fs.Bool("significance", false, "also print pairwise Welch t-test matrices")
		outFile  = fs.String("out", "", "save figure results to this JSON file")
		loadFile = fs.String("load", "", "render previously saved results instead of running")
		score    = fs.Bool("scoreboard", false, "also print the cross-figure wins scoreboard")
		seed     = fs.Uint64("seed", 42, "base random seed")
		bots     = fs.Int("bots", 0, "override BoT arrivals per replication")
		warmup   = fs.Int("warmup", -1, "override warmup completions to discard")
		minReps  = fs.Int("minreps", 0, "override minimum replications per cell")
		maxReps  = fs.Int("maxreps", 0, "override maximum replications per cell")
		relErr   = fs.Float64("relerr", 0, "override CI relative-error target")
		scale    = fs.Float64("scale", 0, "override grid/application scale factor (0,1]")
		policies = fs.String("policies", "", "comma list of policies (default: the paper's five)")
		parallel = fs.Int("parallel", 0, "max concurrent simulations (default GOMAXPROCS)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file on clean exit")
		traceOut = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *figureID == "" && *ablation == "" && *loadFile == "" {
		return errors.New("specify -figure, -ablation or -load (see -h)")
	}

	opts := experiment.DefaultOptions(*seed)
	if *quick {
		opts = experiment.QuickOptions(*seed)
	}
	if *bots > 0 {
		opts.NumBoTs = *bots
	}
	if *warmup >= 0 {
		opts.Warmup = *warmup
	}
	if *minReps > 0 {
		opts.MinReps = *minReps
	}
	if *maxReps > 0 {
		opts.MaxReps = *maxReps
	}
	if *relErr > 0 {
		opts.RelErr = *relErr
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *parallel > 0 {
		opts.Parallelism = *parallel
	}
	if *policies != "" {
		opts.Policies = nil
		for _, name := range strings.Split(*policies, ",") {
			k, err := core.ParsePolicy(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opts.Policies = append(opts.Policies, k)
		}
	}

	outFormat := *format
	if outFormat == "" {
		if *chart {
			outFormat = "chart"
		} else {
			outFormat = "table"
		}
	}
	write, ok := formats[outFormat]
	if !ok {
		return fmt.Errorf("unknown format %q (table|chart|csv|json)", outFormat)
	}
	r := renderer{w: stdout, text: outFormat == "table" || outFormat == "chart",
		writes: []figureWriter{write}, svgDir: *svgDir}
	if *summary {
		r.writes = append(r.writes, (*experiment.FigureResult).WriteSummary)
	}
	if *signif {
		r.writes = append(r.writes, (*experiment.FigureResult).WriteSignificance)
	}

	// Profiling stops (and the files land) only on a clean return: an
	// error returns early, leaving truncated profiles behind rather than
	// masking the error.
	stopProfiles, err := startProfiles(*cpuProf, *memProf, *traceOut)
	if err != nil {
		return err
	}

	if *loadFile != "" {
		results, err := loadResults(*loadFile)
		if err != nil {
			return err
		}
		for _, id := range experiment.SortedIDs(results) {
			if err := r.figure(results[id]); err != nil {
				return err
			}
		}
		if *score {
			if err := experiment.WriteScoreboard(stdout, experiment.Scoreboard(results)); err != nil {
				return err
			}
		}
	}
	if *figureID != "" {
		results, err := r.runFigures(*figureID, opts)
		if err != nil {
			return err
		}
		if *outFile != "" {
			if err := saveResults(*outFile, results); err != nil {
				return err
			}
		}
		if *score {
			if err := experiment.WriteScoreboard(stdout, experiment.Scoreboard(results)); err != nil {
				return err
			}
		}
	}
	if *ablation != "" {
		if err := runAblations(stdout, *ablation, opts); err != nil {
			return err
		}
	}
	stopProfiles()
	return nil
}

func loadResults(path string) (map[string]*experiment.FigureResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return experiment.LoadResults(f)
}

func saveResults(path string, results map[string]*experiment.FigureResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := errors.Join(experiment.SaveResults(f, results), f.Close()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "saved %d figure results to %s\n", len(results), path)
	return nil
}

type figureWriter func(*experiment.FigureResult, io.Writer) error

// formats maps each -format to its figure writer.
var formats = map[string]figureWriter{
	"table": (*experiment.FigureResult).WriteTable,
	"chart": (*experiment.FigureResult).WriteChart,
	"csv":   (*experiment.FigureResult).WriteCSV,
	"json":  (*experiment.FigureResult).WriteJSON,
}

// renderer writes each figure result through writes (the -format writer,
// then the extras the flags ask for) and optionally as an SVG file.
type renderer struct {
	w      io.Writer
	text   bool // table or chart: blank-line separated, with a timing note
	writes []figureWriter
	svgDir string
}

func (r renderer) runFigures(spec string, opts experiment.Options) (map[string]*experiment.FigureResult, error) {
	var figs []experiment.Figure
	if spec == "all" {
		figs = experiment.Figures
	} else {
		for _, id := range strings.Split(spec, ",") {
			f, err := experiment.FigureByID(strings.TrimSpace(id))
			if err != nil {
				return nil, err
			}
			figs = append(figs, f)
		}
	}
	// One RunSweep call: every requested panel's cells feed the shared
	// worker pool, so a multi-figure sweep keeps all workers busy end to
	// end instead of draining one figure at a time.
	start := time.Now()
	results, err := experiment.RunSweep(figs, opts)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()
	for _, f := range figs {
		if err := r.figure(results[f.ID]); err != nil {
			return nil, err
		}
		if r.text {
			fmt.Fprintln(r.w)
		}
	}
	if r.text {
		par := opts.Parallelism
		if par <= 0 {
			par = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(r.w, "(%d figure(s) in %.1fs, parallel=%d)\n\n", len(figs), elapsed, par)
	}
	return results, nil
}

func (r renderer) figure(fr *experiment.FigureResult) error {
	for _, write := range r.writes {
		if err := write(fr, r.w); err != nil {
			return err
		}
	}
	if r.svgDir != "" {
		return writeSVG(r.svgDir, fr.Figure.ID, fr)
	}
	return nil
}

func writeSVG(dir, id string, fr *experiment.FigureResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".svg")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fr.WriteSVG(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func runAblations(w io.Writer, spec string, opts experiment.Options) error {
	type study struct {
		name string
		run  func(experiment.Options) (*experiment.AblationResult, error)
	}
	studies := []study{
		{"threshold", experiment.AblationThreshold},
		{"dynrep", experiment.AblationDynamicReplication},
		{"ckpt", experiment.AblationCheckpointing},
		{"machsel", experiment.AblationMachineSelection},
		{"taskorder", experiment.AblationTaskOrder},
		{"servercap", experiment.AblationServerCapacity},
		{"taskdist", experiment.AblationTaskDistribution},
		{"diurnal", experiment.AblationDiurnal},
		{"suspend", experiment.AblationSuspend},
		{"arch", experiment.AblationArchitecture},
	}
	want := map[string]bool{}
	for _, s := range strings.Split(spec, ",") {
		want[strings.TrimSpace(s)] = true
	}
	ran := false
	for _, s := range studies {
		if !want["all"] && !want[s.name] {
			continue
		}
		ran = true
		ar, err := s.run(opts)
		if err != nil {
			return err
		}
		if err := ar.WriteTable(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if want["all"] || want["mixed"] {
		ran = true
		rows, err := experiment.MixedWorkloadStudy(opts)
		if err != nil {
			return err
		}
		if err := experiment.WriteMixedTable(w, opts, rows); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("unknown ablation %q (threshold|dynrep|ckpt|machsel|taskorder|servercap|taskdist|diurnal|suspend|arch|mixed|all)", spec)
	}
	return nil
}

// startProfiles begins the CPU profile and execution trace immediately
// and returns a stop function that finishes them and writes the heap
// profile. Empty paths are skipped; any file that cannot be created is an
// error up front, before hours of sweeping.
func startProfiles(cpuPath, memPath, tracePath string) (func(), error) {
	var stops []func()
	for _, p := range []struct {
		path        string
		start, stop func(io.Writer) error
	}{
		{cpuPath, pprof.StartCPUProfile, func(io.Writer) error { pprof.StopCPUProfile(); return nil }},
		{tracePath, trace.Start, func(io.Writer) error { trace.Stop(); return nil }},
		{memPath, func(io.Writer) error { return nil }, func(w io.Writer) error {
			runtime.GC() // flush recent frees so the profile shows live heap
			return pprof.WriteHeapProfile(w)
		}},
	} {
		if p.path == "" {
			continue
		}
		f, err := os.Create(p.path)
		if err != nil {
			return nil, err
		}
		if err := p.start(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			if err := p.stop(f); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: writing %s: %v\n", p.path, err)
			}
			closeProfile(f, p.path)
		})
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}, nil
}

func closeProfile(f *os.File, path string) {
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: closing %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
