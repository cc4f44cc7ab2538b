package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"no work":         {"-quick"},
		"unknown format":  {"-figure", "F1a", "-format", "xml"},
		"unknown policy":  {"-figure", "F1a", "-policies", "FCFS-Share,NoSuchPolicy"},
		"unknown study":   {"-ablation", "nosuchstudy"},
		"unknown figure":  {"-figure", "F9z"},
		"missing results": {"-load", filepath.Join(t.TempDir(), "absent.json")},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("%s: %q accepted", name, args)
		}
	}
}

// TestRunSaveAndLoad runs one tiny quick-mode figure, saves it with -out,
// and renders the saved file again through -load.
func TestRunSaveAndLoad(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f1a.json")
	var ran strings.Builder
	if err := run([]string{"-figure", "F1a", "-quick", "-bots", "12", "-warmup", "2",
		"-minreps", "2", "-maxreps", "2", "-policies", "FCFS-Share,RR",
		"-format", "csv", "-out", out}, &ran); err != nil {
		t.Fatal(err)
	}
	var loaded strings.Builder
	if err := run([]string{"-load", out, "-format", "csv"}, &loaded); err != nil {
		t.Fatal(err)
	}
	if ran.Len() == 0 || loaded.String() != ran.String() {
		t.Fatalf("-load rendered\n%s\nwant what the run rendered\n%s", loaded.String(), ran.String())
	}
}
