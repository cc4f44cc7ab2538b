package analysislint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads the named testdata/src packages as import paths
// "fix/<name>".
func loadFixture(t *testing.T, names ...string) *Module {
	t.Helper()
	dirs := make(map[string]string, len(names))
	for _, n := range names {
		dirs["fix/"+n] = filepath.Join("testdata", "src", n)
	}
	m, err := LoadDirs(dirs)
	if err != nil {
		t.Fatalf("loading fixture %v: %v", names, err)
	}
	return m
}

// wantMarkers scans the loaded fixture sources for `// want rule [rule...]`
// trailing comments and returns the expected findings as "file:line:rule"
// strings (one entry per rule listed on the marker). The marker may sit at
// the end of another comment (`//botlint:wire-skip // want wireparity`)
// for findings anchored at a directive's own line.
func wantMarkers(t *testing.T, m *Module) []string {
	t.Helper()
	var want []string
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					rest := c.Text[idx+len("// want "):]
					pos := m.Fset.Position(c.Pos())
					for _, rule := range strings.Fields(rest) {
						want = append(want, fmt.Sprintf("%s:%d:%s", filepath.Base(pos.Filename), pos.Line, rule))
					}
				}
			}
		}
	}
	sort.Strings(want)
	return want
}

func gotFindings(res *Result) []string {
	var got []string
	for _, d := range res.Findings {
		got = append(got, fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule))
	}
	sort.Strings(got)
	return got
}

func diffStrings(t *testing.T, res *Result, want, got []string) {
	t.Helper()
	if strings.Join(want, "\n") == strings.Join(got, "\n") {
		return
	}
	t.Errorf("findings mismatch:\nwant:\n  %s\ngot:\n  %s\nfull diagnostics:\n  %s",
		strings.Join(want, "\n  "), strings.Join(got, "\n  "), diagLines(res))
}

func diagLines(res *Result) string {
	var lines []string
	for _, d := range res.Findings {
		lines = append(lines, d.String())
	}
	return strings.Join(lines, "\n  ")
}

// TestRules runs every analyzer over its caught-positive and
// clean-negative fixture pair, table-driven: the `// want` markers in the
// fixtures are the expected findings, and the negative fixtures expect
// none.
func TestRules(t *testing.T) {
	cases := []struct {
		name     string
		fixtures []string
		cfg      func(names []string) Config
	}{
		{
			name:     "determinism",
			fixtures: []string{"determpos", "determneg"},
			cfg: func(names []string) Config {
				return Config{DeterministicPkgs: names}
			},
		},
		{
			name:     "locks",
			fixtures: []string{"lockpos", "lockneg"},
			cfg:      func([]string) Config { return Config{} },
		},
		{
			// The sharded-dispatch shape: a lockless router over
			// mutex-owning shards (internal/serve's Server/shard split).
			name:     "locks",
			fixtures: []string{"shardlockpos", "shardlockneg"},
			cfg:      func([]string) Config { return Config{} },
		},
		{
			name:     "hotpath",
			fixtures: []string{"hotpathpos", "hotpathneg"},
			cfg:      func([]string) Config { return Config{} },
		},
		{
			// The wire-codec shape: frame encoders must feed append back
			// into the scratch buffer and decoders must fail with static
			// errors (internal/wire's encode/decode surface).
			name:     "hotpath",
			fixtures: []string{"wirecodecpos", "wirecodecneg"},
			cfg:      func([]string) Config { return Config{} },
		},
		{
			name:     "errcheck",
			fixtures: []string{"errcheckpos", "errcheckneg", "errstrict"},
			cfg: func([]string) Config {
				return Config{StrictErrorPkgs: []string{"fix/errstrict"}}
			},
		},
		{
			// The lockless-router shape: typed atomic fields
			// (internal/serve's ring/slots/nextSubmit and the cluster
			// Gate's srv pointer) and the two misuses vet accepts.
			name:     "atomics",
			fixtures: []string{"atomicpos", "atomicneg"},
			cfg:      func([]string) Config { return Config{} },
		},
		{
			name:     "lockorder",
			fixtures: []string{"lockorderpos", "lockorderneg"},
			cfg:      func([]string) Config { return Config{} },
		},
		{
			name:     "wireparity",
			fixtures: []string{"wireparpos", "wireparneg"},
			cfg:      func([]string) Config { return wireParityFixtureConfig() },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := loadFixture(t, tc.fixtures...)
			paths := make([]string, len(tc.fixtures))
			for i, n := range tc.fixtures {
				paths[i] = "fix/" + n
			}
			res := Run(m, tc.cfg(paths))
			want := wantMarkers(t, m)
			if len(want) == 0 {
				t.Fatal("fixture has no `// want` markers; positive fixtures must assert at least one finding")
			}
			diffStrings(t, res, want, gotFindings(res))
			for _, d := range res.Findings {
				if d.Rule != tc.name {
					t.Errorf("unexpected rule %q from the %s fixtures: %s", d.Rule, tc.name, d)
				}
			}
			if len(res.Suppressed) != 0 {
				t.Errorf("no suppressions expected, got %d", len(res.Suppressed))
			}
		})
	}
}

// TestSuppressions covers //botlint:ignore handling: with a reason, without
// one, with an unknown rule, stale, and a stale //botlint:sorted.
func TestSuppressions(t *testing.T) {
	m := loadFixture(t, "suppress")
	res := Run(m, Config{DeterministicPkgs: []string{"fix/suppress"}})

	// Two determinism findings are silenced: the reasoned one and the
	// reasonless one (which is then reported itself).
	if len(res.Suppressed) != 2 {
		t.Fatalf("want 2 suppressions, got %d: %+v", len(res.Suppressed), res.Suppressed)
	}
	if r := res.Suppressed[0].Reason; !strings.Contains(r, "interop timestamp") {
		t.Errorf("first suppression lost its reason: %q", r)
	}
	if r := res.Suppressed[1].Reason; r != "" {
		t.Errorf("reasonless suppression grew a reason: %q", r)
	}

	byRule := make(map[string][]string)
	for _, d := range res.Findings {
		byRule[d.Rule] = append(byRule[d.Rule], d.Msg)
	}
	// The unknown-rule directive suppresses nothing, so its time.Now still
	// fires.
	if n := len(byRule["determinism"]); n != 1 {
		t.Errorf("want 1 unsuppressed determinism finding (unknown-rule case), got %d: %v", n, byRule["determinism"])
	}
	// Four defective directives: missing reason, unknown rule, stale
	// ignore, stale sorted.
	if n := len(byRule[suppressRule]); n != 4 {
		t.Errorf("want 4 suppress findings, got %d: %v", n, byRule[suppressRule])
	}
	wantSubstrings := []string{"has no reason", "unknown rule", "stale suppression", "stale //botlint:sorted"}
	for _, sub := range wantSubstrings {
		found := false
		for _, msg := range byRule[suppressRule] {
			if strings.Contains(msg, sub) {
				found = true
			}
		}
		if !found {
			t.Errorf("no suppress finding mentions %q in %v", sub, byRule[suppressRule])
		}
	}
}

// wireParityFixtureConfig pairs every message twin declared by the
// wireparity fixtures.
func wireParityFixtureConfig() Config {
	pos, neg := "fix/wireparpos", "fix/wireparneg"
	return Config{
		WirePairs: []WirePair{
			{WirePkg: pos, Wire: "WireFoo", JSONPkg: pos, JSON: "JSONFoo"},
			{WirePkg: pos, Wire: "WireBar", JSONPkg: pos, JSON: "JSONBar"},
			{WirePkg: pos, Wire: "WireBaz", JSONPkg: pos, JSON: "JSONBaz"},
			{WirePkg: pos, Wire: "appendThing", JSONPkg: pos, JSON: "ThingReq"},
			{WirePkg: pos, Wire: "appendGone", JSONPkg: pos, JSON: "GoneReq"},
			{WirePkg: pos, Wire: "appendHalf", JSONPkg: pos, JSON: "HalfReq"},
			{WirePkg: neg, Wire: "WireFetch", JSONPkg: neg, JSON: "JSONFetch"},
			{WirePkg: neg, Wire: "appendPoll", JSONPkg: neg, JSON: "PollReq"},
		},
		WireConstPkgs: []string{pos, neg},
	}
}

// TestEscape runs the compiler-backed gate over the self-contained fixture
// modules under testdata/escape. Each is its own module with a go.mod —
// the gate shells out to `go build -gcflags=-m`, which needs a buildable
// module root, so these cannot live under testdata/src with the LoadDirs
// fixtures.
func TestEscape(t *testing.T) {
	for _, name := range []string{"escapepos", "escapeneg"} {
		t.Run(name, func(t *testing.T) {
			root, err := filepath.Abs(filepath.Join("testdata", "escape", name))
			if err != nil {
				t.Fatal(err)
			}
			m, err := LoadModule(root)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunAll(m, Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := wantMarkers(t, m)
			diffStrings(t, res, want, gotFindings(res))
			if name == "escapepos" && len(want) == 0 {
				t.Fatal("escapepos has no `// want` markers")
			}
			if name == "escapeneg" {
				if len(res.Suppressed) == 0 {
					t.Error("expected the reasoned escape suppression to be applied")
				}
				for _, s := range res.Suppressed {
					if s.Reason == "" {
						t.Errorf("escape suppression at line %d has no reason", s.Pos.Line)
					}
				}
			}
		})
	}
}

// TestDeterministicOutput pins the concurrent analyzers' merged output:
// the findings come out position-sorted, and repeated runs over one load
// are byte-identical regardless of goroutine scheduling.
func TestDeterministicOutput(t *testing.T) {
	m := loadFixture(t, "determpos", "lockpos", "hotpathpos", "errcheckpos",
		"errstrict", "atomicpos", "lockorderpos", "wireparpos")
	cfg := wireParityFixtureConfig()
	cfg.DeterministicPkgs = []string{"fix/determpos"}
	cfg.StrictErrorPkgs = []string{"fix/errstrict"}

	base := Run(m, cfg)
	if len(base.Findings) < 10 {
		t.Fatalf("expected a rich multi-rule finding set, got %d", len(base.Findings))
	}
	rules := map[string]bool{}
	for _, d := range base.Findings {
		rules[d.Rule] = true
	}
	for _, want := range []string{"determinism", "locks", "hotpath", "errcheck", "atomics", "lockorder", "wireparity"} {
		if !rules[want] {
			t.Errorf("no %s finding in the combined run", want)
		}
	}

	sorted := append([]Diagnostic(nil), base.Findings...)
	sortDiags(sorted)
	for i := range sorted {
		if sorted[i] != base.Findings[i] {
			t.Fatalf("findings not emitted in sorted position order at index %d: %s", i, base.Findings[i])
		}
	}

	for run := 0; run < 3; run++ {
		res := Run(m, cfg)
		if got, want := diagLines(res), diagLines(base); got != want {
			t.Fatalf("run %d diverged:\n%s\nwant:\n%s", run, got, want)
		}
	}
}

// BenchmarkLintModule tracks `make lint` wall-clock: one whole-module load
// plus a full concurrent analyzer run per iteration. The escape gate's
// compiler subprocess is excluded — its cost is go build's, replayed from
// the build cache, not the analyzers'.
func BenchmarkLintModule(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m, err := LoadModule(root)
		if err != nil {
			b.Fatal(err)
		}
		res := Run(m, DefaultConfig(m.Path))
		// Without the escape gate the tree's escape suppressions look
		// stale; anything else is a real regression.
		for _, d := range res.Findings {
			if d.Rule == suppressRule && strings.Contains(d.Msg, "rule escape does not fire") {
				continue
			}
			b.Fatalf("module not clean: %s", diagLines(res))
		}
	}
}

// TestModuleClean is the in-tree acceptance gate: the real module must lint
// clean under all eight rules — escape gate included — and every applied
// suppression must carry a reason.
func TestModuleClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAll(m, DefaultConfig(m.Path))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Findings {
		t.Errorf("unsuppressed finding: %s", d)
	}
	if len(res.Suppressed) == 0 {
		t.Error("expected at least one reasoned suppression in the tree (the live wall clock)")
	}
	for _, s := range res.Suppressed {
		if s.Reason == "" {
			t.Errorf("%s:%d: suppression of %s has no reason", s.Pos.Filename, s.Pos.Line, s.Rule)
		}
	}
}

// TestLoadModuleShape sanity-checks the loader: every expected package of
// the module is present and type-checked against shared type info.
func TestLoadModuleShape(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	wantPkgs := []string{
		"botgrid",
		"botgrid/cmd/botlint",
		"botgrid/internal/analysislint",
		"botgrid/internal/core",
		"botgrid/internal/des",
		"botgrid/internal/journal",
		"botgrid/internal/serve",
	}
	have := make(map[string]bool, len(m.Pkgs))
	for _, p := range m.Pkgs {
		have[p.Path] = true
		if p.Types == nil || len(p.Files) == 0 {
			t.Errorf("package %s loaded without types or files", p.Path)
		}
	}
	for _, w := range wantPkgs {
		if !have[w] {
			t.Errorf("package %s missing from module load", w)
		}
	}
	// Shared Info: identifiers across packages resolve through one map.
	resolved := 0
	for range m.Info.Uses {
		resolved++
		if resolved > 1000 {
			break
		}
	}
	if resolved < 1000 {
		t.Errorf("suspiciously few resolved identifiers: %d", resolved)
	}
}

var _ = ast.Inspect // keep go/ast imported for wantMarkers' comment walk
