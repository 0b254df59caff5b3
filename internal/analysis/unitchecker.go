package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"go/version"
	"io"
	"os"
	"strings"
)

// vetConfig is the JSON configuration the go command hands a -vettool for
// each package unit (the same contract x/tools' unitchecker speaks).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point of a namingvet-style multichecker. It speaks
// three dialects:
//
//	tool -V=full            — print a version/build id (go vet tool cache)
//	tool -flags             — print the tool's flags as JSON (go vet)
//	tool <unit>.cfg         — vet unit mode: one package per invocation
//	tool [-json] patterns…  — standalone mode: `namingvet ./...`
//
// Exit status: 0 clean, 1 tool failure, 2 diagnostics reported (matching
// x/tools unitchecker so `go vet -vettool` interprets failures correctly).
func Main(progname string, analyzers []*Analyzer) {
	args := os.Args[1:]
	jsonOut := false
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		switch {
		case args[0] == "-V=full" || args[0] == "-V":
			printVersion(progname)
			return
		case args[0] == "-flags":
			// No tool-specific flags: the go command only needs a wellformed
			// JSON list to validate user-supplied vet flags against.
			fmt.Println("[]")
			return
		case args[0] == "-json":
			jsonOut = true
			args = args[1:]
		case args[0] == "-help" || args[0] == "--help" || args[0] == "-h":
			fmt.Fprintf(os.Stderr, "usage: %s [-json] packages...\n\nanalyzers:\n", progname)
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
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitMode(args[0], analyzers, jsonOut))
	}
	// Standalone mode: load the patterns with the go toolchain and analyze
	// every matched package.
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
	os.Exit(emit(findings, jsonOut))
}

// printVersion emits the `-V=full` line the go command hashes into its
// build cache key, fingerprinting the tool binary itself.
func printVersion(progname string) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			_ = f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil)[:12])
}

// unitMode analyzes the single package unit described by a go vet cfg file.
func unitMode(cfgFile string, analyzers []*Analyzer, jsonOut bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "parse %s: %v\n", cfgFile, err)
		return 1
	}
	// Packages outside this module (the standard library above all) carry no
	// facts: write an empty table and stop before type-checking them. Their
	// absence from the summary tables only ever hides events — it can not
	// fabricate a diagnostic — and vetting stdlib units would double the cost
	// of every cold `go vet` run.
	if !strings.HasPrefix(cfg.ImportPath, ModulePath) || cfg.Standard[cfg.ImportPath] {
		if cfg.VetxOutput != "" {
			empty, _ := EncodeFacts(Summaries{})
			if err := os.WriteFile(cfg.VetxOutput, empty, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return 0
	}

	// Merge the facts of every dependency the go command supplied. The
	// tables we write below already contain each unit's transitive facts, so
	// direct dependencies are enough even if the driver prunes the rest.
	imported := Summaries{}
	for _, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil {
			continue
		}
		if facts, ok := DecodeFacts(data); ok {
			for k, v := range facts {
				imported[k] = v
			}
		}
	}

	fset := token.NewFileSet()
	mapped := mappedImporter{
		mapping: cfg.ImportMap,
		under:   exportImporter(fset, cfg.PackageFile),
	}
	pkg, err := Check(fset, cfg.ImportPath, cfg.GoFiles, mapped, version.Lang(cfg.GoVersion))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// VetxOnly units (dependencies of the packages named on the vet command
	// line) still compute and export real facts — that is the whole point of
	// the facts mechanism — they just skip diagnostics.
	if cfg.VetxOnly {
		merged := ComputeFacts(pkg, imported).All
		return writeVetx(cfg.VetxOutput, merged)
	}
	findings, merged, err := RunAnalyzers(pkg, analyzers, imported)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if code := writeVetx(cfg.VetxOutput, merged); code != 0 {
		return code
	}
	return emit(findings, jsonOut)
}

// writeVetx serializes a merged summary table to the unit's VetxOutput
// file ("" means the driver did not ask for one).
func writeVetx(path string, merged Summaries) int {
	if path == "" {
		return 0
	}
	data, err := EncodeFacts(merged)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// emit prints findings (plain to stderr, or JSON to stdout) and returns
// the process exit code.
func emit(findings []Finding, jsonOut bool) int {
	if jsonOut {
		out := make(map[string][]map[string]string)
		for _, f := range findings {
			out[f.Analyzer] = append(out[f.Analyzer], map[string]string{
				"posn":    fmt.Sprintf("%s:%d:%d", f.Posn.Filename, f.Posn.Line, f.Posn.Column),
				"message": f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		_ = enc.Encode(out)
		return 0
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// mappedImporter applies the vet config's source-import-path → canonical
// path mapping (vendoring) before consulting the export-data importer.
type mappedImporter struct {
	mapping map[string]string
	under   types.Importer
}

func (m mappedImporter) Import(path string) (*types.Package, error) {
	if canonical, ok := m.mapping[path]; ok {
		path = canonical
	}
	return m.under.Import(path)
}
