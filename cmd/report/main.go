// Command report prints the derived experiment parameters: the Desktop
// Grid configuration table (experiment T1, paper §4.1) and the workload /
// arrival-rate table (experiment T2, paper §4.2).
//
// Examples:
//
//	report -table configs
//	report -table workloads -scale 0.1
//	report -table all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"botgrid/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested tables to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	var (
		table = fs.String("table", "all", "which table: configs|workloads|analysis|all")
		seed  = fs.Uint64("seed", 42, "seed for grid instantiation")
		scale = fs.Float64("scale", 1, "grid/application scale factor (0,1]")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *table {
	case "configs", "workloads", "analysis", "all":
	default:
		return fmt.Errorf("unknown table %q (configs|workloads|analysis|all)", *table)
	}
	// The negated test also rejects NaN.
	if !(*scale > 0 && *scale <= 1) {
		return fmt.Errorf("-scale %v outside (0,1]", *scale)
	}

	if *table == "configs" || *table == "all" {
		fmt.Fprintln(stdout, "T1 — Desktop Grid configurations (§4.1)")
		rows := experiment.ConfigTable(*seed, *scale)
		if err := experiment.WriteConfigTable(stdout, rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *table == "workloads" || *table == "all" {
		fmt.Fprintln(stdout, "T2 — workloads and arrival rates from U = λ·D (§4.2, Eq. 1)")
		rows := experiment.WorkloadTable(*scale)
		if err := experiment.WriteWorkloadTable(stdout, rows); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if *table == "analysis" || *table == "all" {
		fmt.Fprintln(stdout, "T3 — operational analysis (demands, saturation points, M/G/1 waits)")
		rows := experiment.AnalysisTable(*scale)
		if err := experiment.WriteAnalysisTable(stdout, rows); err != nil {
			return err
		}
	}
	return nil
}
