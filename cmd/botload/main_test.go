package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestRunInProcess drives a small campaign end to end against an
// in-process server and checks the report covers throughput, replica
// overhead, both latency distributions and the failure counters.
func TestRunInProcess(t *testing.T) {
	o := options{
		policy:   "LongIdle",
		workers:  20,
		power:    10,
		bags:     4,
		tasks:    25,
		work:     100,
		failProb: 0.05,
		lease:    10 * time.Second,
		timeout:  60 * time.Second,
		seed:     3,
	}
	var buf strings.Builder
	if err := run(context.Background(), o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"policy LongIdle",
		"throughput:",
		"decision latency",
		"fetch RTT",
		"mean bag turnaround:",
		"injected resubmissions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Every completed task was started at least once, so the overhead
	// (replicas started per completed task) can never read below 1.
	var overhead float64
	if _, after, ok := strings.Cut(out, "replica overhead: "); !ok {
		t.Errorf("report missing the replica overhead line:\n%s", out)
	} else if _, err := fmt.Sscanf(after, "%g", &overhead); err != nil || overhead < 1 {
		t.Errorf("replica overhead %v (%v), want >= 1:\n%s", overhead, err, out)
	}
}

func TestRunRejectsBadPolicy(t *testing.T) {
	o := options{policy: "NoSuchPolicy", workers: 1, bags: 1, tasks: 1,
		work: 1, timeout: time.Second}
	if err := run(context.Background(), o, &strings.Builder{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
