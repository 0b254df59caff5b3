package main

// End-to-end tests of the built binary: it is silent on clean packages,
// reports seeded bugs, and refuses flags it does not define.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
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

// vet is the binary under test, built once per package run by the first
// test that needs it and removed by TestMain.
var vet struct {
	once     sync.Once
	dir, bin string
	err      error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if vet.dir != "" {
		_ = os.RemoveAll(vet.dir)
	}
	os.Exit(code)
}

func buildVet(t *testing.T) string {
	t.Helper()
	root := repoRoot(t)
	vet.once.Do(func() {
		if vet.dir, vet.err = os.MkdirTemp("", "namingvet-test-"); vet.err != nil {
			return
		}
		vet.bin = filepath.Join(vet.dir, "namingvet")
		cmd := exec.Command("go", "build", "-o", vet.bin, "./cmd/namingvet")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			vet.err = fmt.Errorf("go build namingvet: %v\n%s", err, out)
		}
	})
	if vet.err != nil {
		t.Fatal(vet.err)
	}
	return vet.bin
}

func TestStandaloneCleanPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and type-checks module packages")
	}
	bin := buildVet(t)
	// internal/cluster imports internal/nameserver and internal/lru, so
	// their facts flow into its analysis in the same run.
	cmd := exec.Command(bin, "./internal/lru", "./internal/nameserver", "./internal/cluster")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("namingvet flagged a clean package: %v\n%s", err, out)
	}
}

// TestForeignFlagsRefused: the flags another driver would pass (the go
// command's -V=full and -flags probes, a -json report) are no flags of
// namingvet's, so such an invocation exits 1 instead of analyzing nothing.
func TestForeignFlagsRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildVet(t)
	for _, flag := range []string{"-V=full", "-flags", "-json"} {
		cmd := exec.Command(bin, flag, "./internal/lru")
		cmd.Dir = repoRoot(t)
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("namingvet %s: exit = %v, want exit status 1\n%s", flag, err, out)
			continue
		}
		if !strings.Contains(string(out), "unknown flag "+flag) {
			t.Errorf("namingvet %s: output does not name the unknown flag:\n%s", flag, out)
		}
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
