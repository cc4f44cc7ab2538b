package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown table":  {"-table", "nosuchtable"},
		"zero scale":     {"-scale", "0"},
		"negative scale": {"-scale", "-0.5"},
		"scale above 1":  {"-scale", "1.5"},
		"NaN scale":      {"-scale", "NaN"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%s: %q accepted", name, args)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before rejecting", name, out.String())
		}
	}
}

func TestRunAllTables(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "all", "-scale", "0.1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, heading := range []string{"T1 — ", "T2 — ", "T3 — "} {
		if !strings.Contains(out.String(), heading) {
			t.Errorf("output lacks the %q heading:\n%s", heading, out.String())
		}
	}
}
