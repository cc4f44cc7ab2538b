package analysislint

import (
	"go/ast"
	"strings"
	"testing"
)

// TestSplitDirective covers the raw comment-to-directive parse, including
// the trailing-marker form fixtures rely on.
func TestSplitDirective(t *testing.T) {
	cases := []struct {
		text       string
		verb, args string
		ok         bool
	}{
		{"//botlint:ignore determinism -- seeded", "ignore", "determinism -- seeded", true},
		{"//botlint:holds mu", "holds", "mu", true},
		{"//botlint:wire-skip worker -- carried in the URL", "wire-skip", "worker -- carried in the URL", true},
		{"//botlint:wire-skip // want wireparity", "wire-skip", "// want wireparity", true},
		{"// ordinary comment", "", "", false},
		{"//botlint", "", "", false},
		{"// botlint:ignore escape -- space breaks the prefix", "", "", false},
	}
	for _, tc := range cases {
		verb, args, ok := splitDirective(tc.text)
		if verb != tc.verb || args != tc.args || ok != tc.ok {
			t.Errorf("splitDirective(%q) = %q, %q, %v; want %q, %q, %v",
				tc.text, verb, args, ok, tc.verb, tc.args, tc.ok)
		}
	}
}

// TestSplitReason covers the `<rule> -- <reason>` argument grammar used
// by both //botlint:ignore and //botlint:wire-skip.
func TestSplitReason(t *testing.T) {
	cases := []struct {
		args         string
		rule, reason string
	}{
		{"escape -- pool growth", "escape", "pool growth"},
		{"escape", "escape", ""},
		{"escape --", "escape", ""},
		{"-- reason with no rule", "", "reason with no rule"},
		{"", "", ""},
		{"wireparity --  padded  ", "wireparity", "padded"},
	}
	for _, tc := range cases {
		rule, reason := splitReason(tc.args)
		if rule != tc.rule || reason != tc.reason {
			t.Errorf("splitReason(%q) = %q, %q; want %q, %q",
				tc.args, rule, reason, tc.rule, tc.reason)
		}
	}
}

// TestDocDirectives checks that every matching directive in a doc group
// is returned, in order, and that other verbs do not leak in.
func TestDocDirectives(t *testing.T) {
	doc := &ast.CommentGroup{List: []*ast.Comment{
		{Text: "// appendThing encodes a ThingReq."},
		{Text: "//botlint:wire-skip worker -- in the URL path"},
		{Text: "//botlint:hotpath"},
		{Text: "//botlint:wire-skip seq -- implied by ordering"},
	}}
	got := docDirectives(doc, "wire-skip")
	want := []string{"worker -- in the URL path", "seq -- implied by ordering"}
	if len(got) != len(want) {
		t.Fatalf("docDirectives = %q; want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("docDirectives[%d] = %q; want %q", i, got[i], want[i])
		}
	}
	if docDirectives(nil, "wire-skip") != nil {
		t.Error("docDirectives(nil) should be nil")
	}
	if args, ok := docDirective(doc, "hotpath"); !ok || args != "" {
		t.Errorf("docDirective(hotpath) = %q, %v; want \"\", true", args, ok)
	}
}

// TestKnownRule pins the rule registry: all eight families are
// suppressible, the internal suppress rule is not, and the unknown-rule
// message names the new analyzers so stale suppressions stay fixable.
func TestKnownRule(t *testing.T) {
	for _, r := range Rules {
		if !knownRule(r.Name) {
			t.Errorf("knownRule(%q) = false; every listed rule must be suppressible", r.Name)
		}
	}
	if len(Rules) != 8 {
		t.Errorf("len(Rules) = %d; the suite has 8 rule families", len(Rules))
	}
	for _, r := range []string{suppressRule, "nosuchrule", ""} {
		if knownRule(r) {
			t.Errorf("knownRule(%q) = true; want false", r)
		}
	}
	list := ruleNameList()
	for _, r := range []string{"atomics", "lockorder", "wireparity", "escape"} {
		if !strings.Contains(list, r) {
			t.Errorf("ruleNameList() = %q; missing new rule %q", list, r)
		}
	}
}

// TestDirectiveEdgeFindings drives the defective-directive paths through
// real fixtures: a reasonless wire-skip and an unknown-rule suppression
// naming one of the new analyzers.
func TestDirectiveEdgeFindings(t *testing.T) {
	t.Run("wire-skip without reason", func(t *testing.T) {
		m := loadFixture(t, "wireparpos")
		res := Run(m, wireParityFixtureConfig())
		var field, fn bool
		for _, d := range res.Findings {
			if strings.Contains(d.Msg, "has no reason") {
				if strings.Contains(d.Msg, "want `//botlint:wire-skip -- why`") {
					field = true
				} else {
					fn = true
				}
			}
		}
		if !field || !fn {
			t.Errorf("reasonless wire-skip findings: field form %v, func form %v; want both", field, fn)
		}
	})
	t.Run("unknown-rule suppression names new rules", func(t *testing.T) {
		m := loadFixture(t, "suppress")
		res := Run(m, Config{DeterministicPkgs: []string{"fix/suppress"}})
		var found bool
		for _, d := range res.Findings {
			if strings.Contains(d.Msg, "unknown rule") {
				found = true
				for _, r := range []string{"atomics", "lockorder", "wireparity", "escape"} {
					if !strings.Contains(d.Msg, r) {
						t.Errorf("unknown-rule message %q does not name %q", d.Msg, r)
					}
				}
			}
		}
		if !found {
			t.Error("suppress fixture produced no unknown-rule finding")
		}
	})
}
