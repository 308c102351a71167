// Command ncbench regenerates the paper's tables and figures on the
// simulated testbeds and prints them as aligned text tables.
//
// Usage:
//
//	ncbench -list            # list experiment IDs
//	ncbench -fig fig7        # one experiment
//	ncbench -fig all         # everything, in paper order
package main

import (
	"flag"
	"fmt"
	"os"

	"extremenc/internal/experiments"
	"extremenc/internal/gf256"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ncbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ncbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "experiment ID to run, or 'all'")
	format := fs.String("format", "table", "output format: table or csv")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Println(e.ID)
		}
		return nil
	}

	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}
	// On stderr, so table and CSV output stay machine-readable.
	fmt.Fprintf(os.Stderr, "ncbench: host gf256 kernel: %s\n", gf256.Kernel())
	if *fig != "all" {
		runner, ok := experiments.Lookup(*fig)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *fig)
		}
		return render(runner, *format)
	}
	for _, e := range experiments.Registry() {
		if err := render(e.Run, *format); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

func render(runner experiments.Runner, format string) error {
	f, err := runner()
	if err != nil {
		return err
	}
	if format == "csv" {
		return f.RenderCSV(os.Stdout)
	}
	return f.Render(os.Stdout)
}
