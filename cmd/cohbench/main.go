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
	"os"

	"namecoherence/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cohbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cohbench", flag.ContinueOnError)
	only := fs.String("only", "", "run only the experiment with this id (e.g. E7)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tables, err := experiments.All()
	if err != nil {
		return err
	}
	if *list {
		for _, t := range tables {
			fmt.Printf("%-4s %s\n", t.ID, t.Title)
		}
		return nil
	}
	matched := false
	for _, t := range tables {
		if *only != "" && t.ID != *only {
			continue
		}
		matched = true
		fmt.Println(t.String())
	}
	if *only != "" && !matched {
		return fmt.Errorf("no experiment %q (try -list)", *only)
	}
	return nil
}
