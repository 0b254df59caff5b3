// Command cohbench regenerates every experiment table of the reproduction:
// one table per paper figure/claim (E1..E17) plus the ablations (A1..A5).
//
// Usage:
//
//	cohbench             # run everything
//	cohbench -only E7    # run one experiment
//	cohbench -list       # list experiment ids and titles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"namecoherence/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cohbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cohbench", flag.ContinueOnError)
	only := fs.String("only", "", "run only the experiment with this id (e.g. E7)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	index := experiments.Index()
	if *list {
		for _, e := range index {
			fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	matched := false
	for _, e := range index {
		if *only != "" && e.ID != *only {
			continue
		}
		matched = true
		t, err := e.Run()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t.String())
	}
	if !matched {
		return fmt.Errorf("no experiment %q (try -list)", *only)
	}
	return nil
}
