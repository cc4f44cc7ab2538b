// Package analysislint implements botlint, the repo's static-analysis
// suite. It loads every package of the module with the standard library's
// go/parser, go/ast, go/types and go/importer — no external dependencies —
// and checks eight families of invariants the simulator and the live
// dispatch service rely on:
//
//   - determinism: no wall-clock or global math/rand nondeterminism, and no
//     unordered map iteration, in the simulation packages or any code they
//     reach (rule "determinism");
//   - lock discipline: functions annotated //botlint:holds mu are only
//     called with mu held, fields annotated //botlint:guarded-by mu are
//     only touched with mu held (rule "locks");
//   - lock ordering: the acquisition graph built from syntactic Lock sites
//     and the annotations above must stay acyclic (rule "lockorder");
//   - atomic discipline: atomics are typed (atomic.Int64, ...), so no
//     package-level sync/atomic call and no `=` overwrite of a sync/atomic
//     value; the compiler and go vet's copylocks check catch the rest
//     (rule "atomics");
//   - hot-path allocation hygiene: functions annotated //botlint:hotpath
//     avoid the constructs that put allocations or hidden costs on the
//     dispatch path (rule "hotpath");
//   - compiler-verified escapes: no //botlint:hotpath function may report
//     a heap escape under `go build -gcflags=-m` (rule "escape"; RunAll);
//   - wire/JSON protocol parity: every wire message constant has encode and
//     dispatch arms, and each wire message's fields stay name/type-parallel
//     with its JSON protocol twin (rule "wireparity");
//   - error strictness: fsync/write errors of the durability layer are
//     never discarded (rule "errcheck").
//
// Findings are reported as `file:line: [rule] message` and may be
// suppressed, one line at a time, with `//botlint:ignore rule -- reason`.
// Suppressions are themselves checked: a missing reason, an unknown rule
// name, or a suppression whose rule no longer fires all become findings
// (rule "suppress", which cannot itself be suppressed).
package analysislint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Rules lists every analyzer rule name with a one-line description, in
// report order.
var Rules = []struct{ Name, Doc string }{
	{"determinism", "no time.Now, global math/rand, constant-seeded rand sources, or unsorted map ranges in simulation-reachable code"},
	{"locks", "//botlint:holds and //botlint:guarded-by mutex annotations are respected"},
	{"lockorder", "the lock-acquisition graph built from Lock sites and annotations has no cycle"},
	{"atomics", "no package-level sync/atomic calls and no = assignment to a sync/atomic value; go vet's copylocks backs the rest"},
	{"hotpath", "//botlint:hotpath functions avoid fmt, defer, escaping appends, closures and boxing interface conversions"},
	{"escape", "//botlint:hotpath functions report no heap escapes under go build -gcflags=-m"},
	{"wireparity", "wire message constants have encode and dispatch arms; wire messages stay field-parallel with their JSON twins"},
	{"errcheck", "no discarded errors from os.File.Sync or the durability and replication write/sync/send/ack APIs"},
}

// suppressRule is the pseudo-rule for defective suppressions; it cannot be
// ignored.
const suppressRule = "suppress"

func knownRule(name string) bool {
	for _, r := range Rules {
		if r.Name == name {
			return true
		}
	}
	return false
}

// WirePair declares one wire-message ↔ JSON-protocol twin for the
// wireparity analyzer. Wire names either a struct type or an encode
// function whose non-buffer parameters mirror the JSON struct's fields;
// JSON names a struct type. Fields are matched case-insensitively by name
// and must have identical types; pointer-to-struct fields of the JSON side
// are flattened into their components (FetchResponse.Assignment).
type WirePair struct {
	WirePkg string // import path declaring the wire side
	Wire    string // struct type name or encode-function name
	JSONPkg string // import path declaring the JSON side
	JSON    string // struct type name
}

// Config selects what the analyzers treat as in scope.
type Config struct {
	// DeterministicPkgs are the import paths whose code — plus everything
	// statically reachable from it inside the tree — must satisfy the
	// determinism rule.
	DeterministicPkgs []string
	// StrictErrorPkgs are the import paths whose error-returning
	// write/sync/append/flush/close/send/ack APIs must never have their
	// errors discarded.
	StrictErrorPkgs []string
	// WirePairs are the wire ↔ JSON message twins the wireparity analyzer
	// holds field-parallel.
	WirePairs []WirePair
	// WireConstPkgs are the import paths whose msg*/op* byte constants must
	// each have an encode call site and a dispatch (switch/comparison) site.
	WireConstPkgs []string
}

// DefaultConfig returns the botgrid configuration: the simulation clock's
// packages are deterministic; the frame codec's writer, the journal's
// durability APIs, the replication layer's log-transfer APIs and the
// binary wire transport are error-strict (a dropped send or ack error can
// silently stall a quorum, a dropped wire flush strands a client
// mid-batch, a dropped frame write leaves the peer waiting on a message
// that never left, just as a dropped fsync error can silently lose
// acknowledged data); and the binary wire
// protocol is held message-for-message and field-for-field parallel to
// internal/serve's JSON protocol.
func DefaultConfig(modPath string) Config {
	wirePkg := modPath + "/internal/wire"
	servePkg := modPath + "/internal/serve"
	return Config{
		DeterministicPkgs: []string{
			modPath + "/internal/des",
			modPath + "/internal/core",
			modPath + "/internal/grid",
			modPath + "/internal/workload",
			modPath + "/internal/rng",
			// The sweep engine promises bit-identical results at any
			// parallelism; an unordered map range in its fold or
			// publication paths would break that silently.
			modPath + "/internal/experiment",
		},
		StrictErrorPkgs: []string{
			modPath + "/internal/frame",
			modPath + "/internal/journal",
			modPath + "/internal/replicate",
			wirePkg,
		},
		WirePairs: []WirePair{
			{WirePkg: wirePkg, Wire: "SubmitResult", JSONPkg: servePkg, JSON: "SubmitResponse"},
			{WirePkg: wirePkg, Wire: "FetchResult", JSONPkg: servePkg, JSON: "FetchResponse"},
			{WirePkg: wirePkg, Wire: "appendSubmit", JSONPkg: servePkg, JSON: "SubmitRequest"},
			{WirePkg: wirePkg, Wire: "appendFetch", JSONPkg: servePkg, JSON: "FetchRequest"},
			{WirePkg: wirePkg, Wire: "appendReport", JSONPkg: servePkg, JSON: "ReportRequest"},
			{WirePkg: wirePkg, Wire: "appendHeartbeat", JSONPkg: servePkg, JSON: "HeartbeatRequest"},
		},
		WireConstPkgs: []string{wirePkg},
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String formats the finding as file:line: [rule] message, with the file
// path relative to the module root when possible.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Msg)
}

// Suppression is one //botlint:ignore that matched a finding.
type Suppression struct {
	Pos    token.Position // position of the suppressed finding
	Rule   string
	Reason string
	Msg    string // the suppressed finding's message
}

// Result is the outcome of one lint run.
type Result struct {
	// Findings are the unsuppressed diagnostics, in file/line order.
	Findings []Diagnostic
	// Suppressed are the findings silenced by //botlint:ignore directives,
	// in file/line order.
	Suppressed []Suppression
}

// pass carries shared lookup state to one analyzer. Each analyzer gets its
// own pass (and its own report sink) so they can run concurrently; the
// module, directive index and function index are shared and read-only.
type pass struct {
	m      *Module
	cfg    Config
	idx    *funcIndex
	dirs   map[*ast.File]*fileDirectives
	byName map[string]*fileDirectives // keyed by filename
	report func(pos token.Pos, rule, msg string)
}

// fileDirs returns the directive index for the file containing pos.
func (p *pass) fileDirs(pos token.Pos) *fileDirectives {
	if fd, ok := p.byName[p.m.Fset.Position(pos).Filename]; ok {
		return fd
	}
	return &fileDirectives{}
}

// analyzers are the in-process checks, in report order. The escape rule is
// not listed: it shells out to the compiler and only runs under RunAll.
var analyzers = []struct {
	name string
	run  func(*pass)
}{
	{"determinism", checkDeterminism},
	{"locks", checkLocks},
	{"lockorder", checkLockOrder},
	{"atomics", checkAtomics},
	{"hotpath", checkHotpath},
	{"wireparity", checkWireParity},
	{"errcheck", checkErrStrict},
}

// collector is one lint run's shared state: the parsed directives and the
// raw (pre-suppression) diagnostics.
type collector struct {
	m      *Module
	dirs   map[*ast.File]*fileDirectives
	byName map[string]*fileDirectives
	raw    []Diagnostic
}

// collect runs every in-process analyzer concurrently over one shared
// load. The module's FileSet, type info and function index are immutable
// after loading, so the only per-analyzer state is the diagnostic sink;
// the per-analyzer slices are merged in analyzer order (and later sorted
// by position), so the output is deterministic regardless of scheduling.
func collect(m *Module, cfg Config) *collector {
	c := &collector{
		m:      m,
		dirs:   make(map[*ast.File]*fileDirectives),
		byName: make(map[string]*fileDirectives),
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			fd := parseFileDirectives(m.Fset, f)
			c.dirs[f] = fd
			c.byName[m.Fset.Position(f.Pos()).Filename] = fd
		}
	}
	idx := indexFuncs(m)

	diags := make([][]Diagnostic, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, run func(*pass)) {
			defer wg.Done()
			p := &pass{
				m:      m,
				cfg:    cfg,
				idx:    idx,
				dirs:   c.dirs,
				byName: c.byName,
				report: func(pos token.Pos, rule, msg string) {
					diags[i] = append(diags[i], Diagnostic{Pos: m.Fset.Position(pos), Rule: rule, Msg: msg})
				},
			}
			run(p)
		}(i, a.run)
	}
	wg.Wait()
	for _, d := range diags {
		c.raw = append(c.raw, d...)
	}
	return c
}

// finalize applies suppressions to the raw diagnostics and reports
// defective directives.
func (c *collector) finalize() *Result {
	res := &Result{}
	for _, d := range c.raw {
		if fd, ok := c.byName[d.Pos.Filename]; ok {
			if ig := fd.ignoreAt(d.Rule, d.Pos.Line); ig != nil {
				ig.used = true
				res.Suppressed = append(res.Suppressed, Suppression{
					Pos: d.Pos, Rule: d.Rule, Reason: ig.reason, Msg: d.Msg,
				})
				continue
			}
		}
		res.Findings = append(res.Findings, d)
	}

	// The suppressions themselves are findings when defective: unknown
	// rule, missing reason, or stale (nothing left to suppress).
	for _, fd := range c.dirs {
		for _, ig := range fd.ignores {
			switch {
			case !knownRule(ig.rule):
				res.Findings = append(res.Findings, Diagnostic{
					Pos: ig.pos, Rule: suppressRule,
					Msg: fmt.Sprintf("//botlint:ignore names unknown rule %q (known: %s)", ig.rule, ruleNameList()),
				})
			case ig.reason == "":
				res.Findings = append(res.Findings, Diagnostic{
					Pos: ig.pos, Rule: suppressRule,
					Msg: fmt.Sprintf("//botlint:ignore %s has no reason (want `//botlint:ignore %s -- why`)", ig.rule, ig.rule),
				})
			case !ig.used:
				res.Findings = append(res.Findings, Diagnostic{
					Pos: ig.pos, Rule: suppressRule,
					Msg: fmt.Sprintf("stale suppression: rule %s does not fire on this or the next line", ig.rule),
				})
			}
		}
		for _, sd := range fd.sorted {
			if !sd.used {
				res.Findings = append(res.Findings, Diagnostic{
					Pos: sd.pos, Rule: suppressRule,
					Msg: "stale //botlint:sorted: no map range within the next 2 lines",
				})
			}
		}
	}

	sortDiags(res.Findings)
	sort.Slice(res.Suppressed, func(i, j int) bool {
		a, b := res.Suppressed[i].Pos, res.Suppressed[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return res
}

// Run executes the in-process analyzers over the loaded module and applies
// suppressions. The escape rule needs the compiler and only runs under
// RunAll; a fixture run through Run never reports (nor stales out) escape
// suppressions.
func Run(m *Module, cfg Config) *Result {
	return collect(m, cfg).finalize()
}

// RunAll is Run plus the compiler-backed escape gate: it drives
// `go build -gcflags=-m` over the module and reports any heap escape
// inside a //botlint:hotpath function as rule "escape". Escape diagnostics
// join the raw stream before suppression resolution, so //botlint:ignore
// escape directives are honored and staleness-checked like any other. The
// module must have been loaded with LoadModule (escape analysis needs the
// module root to build).
func RunAll(m *Module, cfg Config) (*Result, error) {
	c := collect(m, cfg)
	esc, err := escapeDiagnostics(m)
	if err != nil {
		return nil, err
	}
	c.raw = append(c.raw, esc...)
	return c.finalize(), nil
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return ds[i].Msg < ds[j].Msg
	})
}

func ruleNameList() string {
	names := make([]string, len(Rules))
	for i, r := range Rules {
		names[i] = r.Name
	}
	return strings.Join(names, ", ")
}

// inPkgs reports whether path is one of the listed import paths.
func inPkgs(path string, list []string) bool {
	for _, p := range list {
		if p == path {
			return true
		}
	}
	return false
}
