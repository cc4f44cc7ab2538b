// Command botlint runs the repo's custom static-analysis suite (see
// internal/analysislint) over every package of the module and reports
// violations of the determinism, lock-discipline, lock-ordering, typed-
// atomics, hot-path, compiler-verified escape, wire/JSON protocol-parity
// and error-strictness invariants as `file:line: [rule] message`. Run with
// -rules for the per-rule reference.
//
// Usage:
//
//	go run ./cmd/botlint ./...
//
// The package pattern argument is accepted for familiarity but the tool
// always analyzes the whole module containing the working directory.
// -only restricts reporting and the exit status to a comma-separated rule
// subset (`-only escape` is CI's standalone escape gate). Applied
// suppressions (//botlint:ignore rule -- reason) are listed with their
// reasons. Exit status: 0 clean, 1 unsuppressed findings, 2 the tree
// failed to load or type-check (or the escape gate's compiler run failed).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"botgrid/internal/analysislint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, lints the module containing the working directory and
// returns the exit status; the report goes to stdout, errors to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("botlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quiet := fs.Bool("q", false, "suppress the applied-suppressions listing")
	rules := fs.Bool("rules", false, "print the rule reference and exit")
	only := fs.String("only", "", "comma-separated rule subset to report and gate on")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *rules {
		for _, r := range analysislint.Rules {
			fmt.Fprintf(stdout, "%-12s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	keep, err := ruleFilter(*only)
	if err != nil {
		fmt.Fprintln(stderr, "botlint:", err)
		return 2
	}

	findings, err := lint(stdout, *quiet, keep)
	if err != nil {
		fmt.Fprintln(stderr, "botlint:", err)
		return 2
	}
	if findings > 0 {
		return 1
	}
	return 0
}

// ruleFilter parses -only into a keep-set (nil means every rule).
func ruleFilter(only string) (map[string]bool, error) {
	if only == "" {
		return nil, nil
	}
	keep := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		known := false
		for _, r := range analysislint.Rules {
			if r.Name == name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("-only names unknown rule %q (see -rules)", name)
		}
		keep[name] = true
	}
	return keep, nil
}

// lint runs every rule over the module, writes the report to w and
// returns the number of findings it reported.
func lint(w io.Writer, quiet bool, keep map[string]bool) (int, error) {
	root, err := analysislint.FindModuleRoot(".")
	if err != nil {
		return 0, err
	}
	m, err := analysislint.LoadModule(root)
	if err != nil {
		return 0, err
	}
	res, err := analysislint.RunAll(m, analysislint.DefaultConfig(m.Path))
	if err != nil {
		return 0, err
	}

	findings := res.Findings
	suppressed := res.Suppressed
	if keep != nil {
		findings = findings[:0:0]
		for _, d := range res.Findings {
			if keep[d.Rule] {
				findings = append(findings, d)
			}
		}
		suppressed = suppressed[:0:0]
		for _, s := range res.Suppressed {
			if keep[s.Rule] {
				suppressed = append(suppressed, s)
			}
		}
	}

	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}
	for _, d := range findings {
		fmt.Fprintf(w, "%s:%d: [%s] %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Rule, d.Msg)
	}
	if !quiet {
		for _, s := range suppressed {
			fmt.Fprintf(w, "%s:%d: suppressed [%s]: %s\n", rel(s.Pos.Filename), s.Pos.Line, s.Rule, s.Reason)
		}
	}
	fmt.Fprintf(w, "botlint: %d packages, %d findings, %d suppressed\n",
		len(m.Pkgs), len(findings), len(suppressed))
	return len(findings), nil
}
