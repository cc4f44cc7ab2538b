package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// resultLine is the one JSON object per workload the driver parses.
type resultLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value *float64
		Unit  string
	}
}

// lastLines returns the result lines a run printed, in order; a key the
// contract does not list is an error.
func lastLines(t *testing.T, stdout string) []resultLine {
	t.Helper()
	var out []resultLine
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		var r resultLine
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line does not parse: %v\n%s", err, line)
		}
		out = append(out, r)
	}
	return out
}

// leaks fails the test if the run left anything behind: a goroutine, a
// listener that still accepts, a file in the temp dir.
func leaks(t *testing.T, goroutines int, tmp string, listeners []string) {
	t.Helper()
	// Neither transport waits for its connection goroutines, and the HTTP
	// client's pool notices a closed server a moment later.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
	for _, addr := range listeners {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts after the run", addr)
		}
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		t.Errorf("temp dir still holds %s", f.Name())
	}
}

// watch points the bench's temp files and listeners at the test and returns
// what leaks needs.
func watch(t *testing.T) (goroutines int, tmp string, listeners *[]string) {
	t.Helper()
	tmp = t.TempDir()
	t.Setenv("TMPDIR", tmp)
	listeners = new([]string)
	hooks.listening = func(addr string) { *listeners = append(*listeners, addr) }
	t.Cleanup(func() { hooks.listening = nil })
	return runtime.NumGoroutine(), tmp, listeners
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// holds the output to BENCHMARK.json: every metric of the run's kind exactly
// once with its unit, nothing else, no failed operation — and nothing left
// running afterwards.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	goroutines, tmp, listeners := watch(t)
	for _, traced := range []bool{false, true} {
		want, flag := spec.EndToEnd, "0"
		if traced {
			want, flag = spec.PerLayer, "1"
		}
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-size", "smoke", "-seed", "3", "-trace", flag}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s\n%s", flag, code, stdout.String(), stderr.String())
		}
		results := lastLines(t, stdout.String())
		if len(results) != len(spec.Workloads) {
			t.Fatalf("trace %s: %d result lines for %d workloads", flag, len(results), len(spec.Workloads))
		}
		for i, r := range results {
			name := spec.Workloads[i].Name
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%t attempted=%d failed=%d", name, flag, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics emitted, BENCHMARK.json lists %d", name, flag, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace %s: metric %s missing", name, flag, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s has unit %q, want %q", name, flag, m.Name, got.Unit, m.Unit)
				case !traced && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, m.Name, *got.Value)
				}
				// The human-readable report names it once, with its unit.
				row := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `( |$)`)
				if n := len(row.FindAllString(stdout.String(), -1)); n != len(spec.Workloads) {
					t.Errorf("trace %s: metric %s printed %d times for %d workloads", flag, m.Name, n, len(spec.Workloads))
				}
			}
		}
	}
	leaks(t, goroutines, tmp, *listeners)
	if len(*listeners) == 0 {
		t.Error("the listener hook saw no listener")
	}
}

// TestRepeatable: the same seed gives the same result digests, another seed
// gives others.
func TestRepeatable(t *testing.T) {
	digests := func(seed string) string {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-size", "smoke", "-seed", seed, "-workload", "sim-figures,sim-churn,sim-backlog"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d\n%s", code, stderr.String())
		}
		return strings.Join(regexp.MustCompile(`(?m)^  digest\[\d\] \S+$`).FindAllString(stdout.String(), -1), "\n")
	}
	a, b, c := digests("5"), digests("5"), digests("6")
	if a == "" || a != b {
		t.Errorf("seed 5 twice:\n%s\n--\n%s", a, b)
	}
	if a == c {
		t.Error("seeds 5 and 6 gave the same digests")
	}
}

// TestBrokenCheckFails sabotages one correctness check and expects the
// command to say so with its exit code and its result line.
func TestBrokenCheckFails(t *testing.T) {
	hooks.warmDigest = func(i int, digest string) string {
		if i == 1 {
			return "not-" + digest
		}
		return digest
	}
	defer func() { hooks.warmDigest = nil }()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-size", "smoke", "-workload", "sim-backlog"}, &stdout, &stderr)
	results := lastLines(t, stdout.String())
	if code == 0 || len(results) != 1 || results[0].Correct || results[0].Failed == 0 {
		t.Fatalf("exit code %d with a failed check\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "check warmup-digest-repeats           FAILED") {
		t.Errorf("the failed check is not reported:\n%s", stdout.String())
	}
}

// TestStoppedRunTearsDown: a run whose context ends — the watchdog's
// deadline, SIGINT and SIGTERM all arrive this way — exits non-zero, dumps
// goroutines, and still leaves nothing behind.
func TestStoppedRunTearsDown(t *testing.T) {
	goroutines, tmp, listeners := watch(t)
	ctx, cancel := context.WithCancel(context.Background())
	hooks.warmDigest = func(i int, digest string) string {
		cancel() // mid-run: set-up and warm-up are done, segments are not
		return digest
	}
	defer func() { hooks.warmDigest = nil }()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-size", "smoke", "-workload", "serve-durable"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 from a cancelled run\n%s", stdout.String())
	}
	if len(lastLines(t, stdout.String())) != 0 {
		t.Errorf("a cancelled run printed a result:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "serve-durable") {
		t.Errorf("stderr does not name the stopped workload:\n%s", stderr.String())
	}
	leaks(t, goroutines, tmp, *listeners)
}

// TestCompare checks the three verdicts and the exit code on hand-made
// result files.
func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "sim-churn"})
	runs := func(rates ...float64) []runResult {
		var out []runResult
		for i, r := range rates {
			out = append(out, runResult{Workload: "sim-churn", Seed: uint64(i), Correct: true,
				Metrics: map[string]metricValue{"ops_per_s": {Value: r}}})
		}
		return out
	}
	for _, c := range []struct {
		name      string
		base, new []runResult
		verdict   string
		code      int
	}{
		{"same", runs(100, 101, 99, 100), runs(100, 99, 101, 100), "ok", 0},
		{"slower", runs(100, 101, 99, 100), runs(80, 81, 79, 80), "worse", 1},
		{"noisy", runs(100, 140, 70, 100), runs(90, 60, 130, 95), "unresolved", 0},
		{"noisy but clearly faster", runs(100, 140, 70, 100), runs(200, 260, 150, 210), "ok", 0},
	} {
		var out bytes.Buffer
		code := compare(spec, c.base, c.new, &out)
		row := regexp.MustCompile(`(?m)^sim-churn +ops_per_s .* (\S+)$`).FindStringSubmatch(out.String())
		if code != c.code || row == nil || row[1] != c.verdict {
			t.Errorf("%s: exit code %d, want %d and verdict %s:\n%s", c.name, code, c.code, c.verdict, out.String())
		}
	}
	// Python: statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 11], n=4) == [2.75, 5.5, 8.25].
	if q1, q3 := quartiles([]float64{11, 1, 2, 3, 4, 5, 6, 7, 8, 9}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
}

// TestSpecWithinContract holds BENCHMARK.json to the limits its driver
// enforces before a single run.
func TestSpecWithinContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
	}
	if !setup || len(spec.EndToEnd) > 16 {
		t.Errorf("end_to_end needs setup_s in s, lower, and at most 16 metrics; has %d", len(spec.EndToEnd))
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}
