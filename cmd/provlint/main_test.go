package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildProvlint compiles the linter binary once per test run.
func buildProvlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "provlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building provlint: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestDeliberateViolation is the deliberate-regression check: seed a
// file that breaks the keystring and nilmetrics contracts, run the real
// binary over it, and require a nonzero exit naming both findings. This
// is what proves `make lint` can actually fail.
func TestDeliberateViolation(t *testing.T) {
	bin := buildProvlint(t)
	dir := t.TempDir()
	src := `package seeded

import (
	"provnet/internal/data"
	"provnet/internal/obs"
)

func leakKey(t data.Tuple) string { return t.Key() }

func derefInstrument(c *obs.Counter) obs.Counter { return *c }
`
	if err := os.WriteFile(filepath.Join(dir, "seeded.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, dir)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("provlint exited zero on a seeded violation; output:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v; output:\n%s", err, out)
	}
	for _, needle := range []string{"[keystring]", "[nilmetrics]", "seeded.go"} {
		if !strings.Contains(string(out), needle) {
			t.Errorf("output missing %q:\n%s", needle, out)
		}
	}
}

// TestCleanTreeExitsZero runs the binary the way make lint does: the
// whole module must pass, and the exit code must be zero.
func TestCleanTreeExitsZero(t *testing.T) {
	bin := buildProvlint(t)
	cmd := exec.Command(bin)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("provlint failed on the tree: %v\n%s", err, out)
	}
}

// TestListAndChecksFlags smoke-tests the CLI surface.
func TestListAndChecksFlags(t *testing.T) {
	bin := buildProvlint(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	for _, name := range []string{"mapiter", "detpath", "keystring", "layering", "nilmetrics", "initaddr"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
	cmd := exec.Command(bin, "-checks", "layering,nilmetrics")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("-checks subset on clean tree: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-checks", "nosuch").CombinedOutput(); err == nil {
		t.Fatalf("-checks nosuch should fail, output:\n%s", out)
	}
}
