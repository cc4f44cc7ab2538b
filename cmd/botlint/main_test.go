package main

import (
	"bytes"
	"strings"
	"testing"

	"botgrid/internal/analysislint"
)

func TestUnknownOnlyRuleRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "escape,nosuchrule"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `"nosuchrule"`) {
		t.Fatalf("error does not name the rule: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("rejected run wrote a report: %q", stdout.String())
	}
}

func TestOnlyRulesTrimmed(t *testing.T) {
	keep, err := ruleFilter(" escape , locks ")
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != 2 || !keep["escape"] || !keep["locks"] {
		t.Fatalf("keep-set %v, want escape and locks", keep)
	}
	if keep, err := ruleFilter(""); keep != nil || err != nil {
		t.Fatalf("empty -only gives %v, %v; want every rule", keep, err)
	}
}

func TestRulesListsEveryRule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(analysislint.Rules) {
		t.Fatalf("%d lines for %d rules:\n%s", len(lines), len(analysislint.Rules), stdout.String())
	}
	for i, r := range analysislint.Rules {
		if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != r.Name {
			t.Fatalf("line %d = %q, want rule %s and its doc", i, lines[i], r.Name)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
