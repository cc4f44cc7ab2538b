package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are written down. The bench reads it at
// start-up, emits exactly the metrics it lists and refuses to emit any
// other, so the file and the program cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json at the root of the checkout: the working
// directory of `go run ./bench`, its parent under `go test ./bench`.
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// selectWorkloads resolves a -workload list against the registry, and
// insists that the registry and BENCHMARK.json name the same workloads.
func selectWorkloads(spec *benchSpec, list string) ([]*workload, error) {
	if len(spec.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, the bench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the bench has %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if list == "" {
		return workloads, nil
	}
	var out []*workload
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// metricValue is one reported metric: the headline value (a median over
// segments unless its definition says otherwise), the per-segment raw
// values it was taken from, and for latency percentiles the per-segment
// sample count.
type metricValue struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments,omitempty"`
	Samples  int       `json:"samples,omitempty"`
}

// check is one correctness check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is everything one workload run reports; -out appends it as one
// JSON line and -compare reads it back.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Host      host                   `json:"host"`
	Sizes     sizes                  `json:"sizes"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Checks    []check                `json:"checks"`
	Digests   []string               `json:"digests,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Reference carries the end-to-end numbers a traced run measured on
	// the side; they are printed for orientation and never compared.
	Reference map[string]metricValue `json:"reference,omitempty"`
}

// seal fixes the result against the spec: every metric of the run's kind
// (end-to-end untraced, per-layer traced) must be present exactly once and
// nothing else may be, units come from the spec, and a failed check counts
// as a failed operation.
func (r *runResult) seal(spec *benchSpec) error {
	want := spec.EndToEnd
	if r.Trace {
		want = spec.PerLayer
	}
	names := make(map[string]bool, len(want))
	for _, m := range want {
		names[m.Name] = true
		v, ok := r.Metrics[m.Name]
		if !ok {
			if !r.Trace {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, m.Name)
			}
			// A layer this workload does not cross: nothing passed through it.
			v = metricValue{}
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, m.Name, v.Value)
		}
		v.Unit = m.Unit
		r.Metrics[m.Name] = v
	}
	for name := range r.Metrics {
		if !names[name] {
			return fmt.Errorf("%s: metric %s is not in BENCHMARK.json", r.Workload, name)
		}
	}
	r.Correct = true
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
			r.Failed++
		}
	}
	return nil
}

// print writes the human-readable report and, as its last line, the one
// JSON object the driver parses.
func (r *runResult) print(w io.Writer, spec *benchSpec) {
	fmt.Fprintf(w, "\n== %s (seed %d, trace %t)\n", r.Workload, r.Seed, r.Trace)
	order := spec.EndToEnd
	if r.Trace {
		order = spec.PerLayer
		for _, m := range spec.EndToEnd {
			if v, ok := r.Reference[m.Name]; ok {
				fmt.Fprintf(w, "  (traced) %-28s %14.6g %s\n", m.Name, v.Value, m.Unit)
			}
		}
	}
	for _, m := range order {
		v := r.Metrics[m.Name]
		fmt.Fprintf(w, "  %-37s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(w, " n=%d/segment", v.Samples)
		}
		if len(v.Segments) > 0 {
			fmt.Fprintf(w, " segments %.6g", v.Segments)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-37s %14.6g (%d of %d operations)\n", "ops_failed_share",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-31s %s %s\n", c.Name, verdict, c.Detail)
	}
	for i, d := range r.Digests {
		fmt.Fprintf(w, "  digest[%d] %s\n", i, d)
	}

	type lastValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]lastValue `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]lastValue, len(r.Metrics))}
	for name, v := range r.Metrics {
		last.Metrics[name] = lastValue{v.Value, v.Unit}
	}
	// seal refused non-finite values, the only thing Marshal could fail on.
	line, _ := json.Marshal(last)
	fmt.Fprintf(w, "%s\n", line)
}

// appendResult adds one JSON line to an -out file.
func appendResult(path string, r *runResult) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result of %s: %w", r.Workload, err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
