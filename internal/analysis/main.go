package analysis

import (
	"fmt"
	"os"
	"strings"
)

// Main is the entry point of a namingvet-style multichecker:
//
//	tool [patterns…]    — load the patterns (default ./...) and analyze them
//	tool -help          — list the analyzers
//
// Any other flag is refused, so an invocation written for another driver
// (go vet's -V=full, -flags, a unit .cfg run with -json) fails loudly
// instead of analyzing nothing. Exit status: 0 clean, 1 tool failure, 2
// findings reported.
func Main(progname string, analyzers []*Analyzer) {
	args := os.Args[1:]
	if len(args) > 0 && strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "-help", "--help", "-h":
			fmt.Fprintf(os.Stderr, "usage: %s [packages...]\n\nanalyzers:\n", progname)
			for _, a := range analyzers {
				doc, _, _ := strings.Cut(a.Doc, "\n")
				fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, doc)
			}
			os.Exit(0)
		default:
			fmt.Fprintf(os.Stderr, "%s: unknown flag %s\n", progname, args[0])
			os.Exit(1)
		}
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := Load(".", args)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	findings, err := Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}
