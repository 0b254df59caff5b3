package main

// End-to-end tests of the two invocation modes: standalone (our own
// loader) and `go vet -vettool` (the unitchecker protocol, driven by the
// real go command).

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the working directory to the module root.
func repoRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

func buildVet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "namingvet")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/namingvet")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build namingvet: %v\n%s", err, out)
	}
	return bin
}

func TestVettoolCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet")
	}
	bin := buildVet(t)
	// internal/cluster imports internal/nameserver, so this also exercises
	// the facts files (.vetx) flowing between units under the go command.
	cmd := exec.Command("go", "vet", "-vettool="+bin,
		"./internal/lru", "./internal/nameserver", "./internal/cluster")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("vettool flagged a clean package: %v\n%s", err, out)
	}
}

func TestStandaloneFindsSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and type-checks a fixture")
	}
	bin := buildVet(t)
	// The analysistest fixtures are real compilable packages with known
	// violations; standalone mode must report them, tagged with their
	// analyzer, and exit 2. One per reporter over the shared held-set scan.
	for _, tc := range []struct{ analyzer, pkg string }{
		{"lockblock", "wire"},
		{"lockexit", "a"},
	} {
		cmd := exec.Command(bin, ".")
		cmd.Dir = filepath.Join(repoRoot(t), "internal", "analysis", tc.analyzer, "testdata", "src", tc.pkg)
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("%s fixture: exit = %v, want exit status 2\n%s", tc.analyzer, err, out)
		}
		if !strings.Contains(string(out), ": "+tc.analyzer+": ") {
			t.Fatalf("%s fixture: diagnostics missing analyzer tag:\n%s", tc.analyzer, out)
		}
	}
}
