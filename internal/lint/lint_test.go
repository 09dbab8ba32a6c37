package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

// testLoader shares one Loader (one `go list -export` run) across the
// package's tests.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loaderVal, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

// tdPath is the import path testdata packages are analyzed under; the
// per-test configs scope the analyzers to these paths.
func tdPath(name string) string { return "provnet/internal/lint/testdata/src/" + name }

func loadTestdata(t *testing.T, name string) *Package {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), tdPath(name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return pkg
}

func runTestdata(t *testing.T, name string, a *Analyzer, cfg *Config) []Diagnostic {
	t.Helper()
	pkg := loadTestdata(t, name)
	return Run(testLoader(t).Fset, []*Package{pkg}, []*Analyzer{a}, cfg)
}

// wantRe matches the golden expectation comments: // want "regexp"
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// checkWants compares diagnostics against the // want comments in
// every file of the testdata directory: each want must be matched by a
// diagnostic on its line, and every diagnostic must be wanted.
func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &want{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if filepath.Base(d.Pos.Filename) == w.file && d.Pos.Line == w.line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func goldenConfig(name string) *Config {
	cfg := DefaultConfig()
	switch name {
	case "mapiter":
		cfg.MapIterPkgs = []string{tdPath(name)}
	case "detpath":
		cfg.DetPathPkgs = []string{tdPath(name)}
	case "initaddr":
		cfg.InitAddrPkgs = []string{tdPath(name)}
	case "keystring":
		cfg.KeyStringFuncs = map[string][]string{tdPath(name): {"KeyOf"}}
	case "layering":
		cfg.Layers = []LayerRule{{
			Pkg:    tdPath(name),
			Deny:   []string{"provnet/internal/"},
			Except: []string{"provnet/internal/obs"},
			Why:    "fixture boundary",
		}}
	}
	return cfg
}

func TestGoldenDiagnostics(t *testing.T) {
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	for _, name := range []string{"mapiter", "detpath", "keystring", "layering", "nilmetrics", "initaddr"} {
		t.Run(name, func(t *testing.T) {
			diags := runTestdata(t, name, byName[name], goldenConfig(name))
			checkWants(t, filepath.Join("testdata", "src", name), diags)
		})
	}
}

// TestAllowSemantics pins the escape hatch: a directive suppresses
// exactly the one finding at its site, an unused directive is itself
// reported, and a reason-less directive is malformed.
func TestAllowSemantics(t *testing.T) {
	diags := runTestdata(t, "allow", KeyString, DefaultConfig())
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Check))
	}
	// annotatedOnce: the call on the directive's line is suppressed;
	// the identical call two lines below still reports.
	want := []string{
		"15:keystring", // second Key() in annotatedOnce
		"19:allow",     // unused directive above cleanButAnnotated
		"25:allow",     // missing reason -> malformed
		"26:keystring", // the reason-less directive suppresses nothing
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("allow semantics mismatch:\n got  %v\n want %v\ndiags:\n%s", got, want, diagText(diags))
	}
	// Exactly one keystring finding was suppressed: the fixture has
	// three Key() calls and two survive.
	keyFindings := 0
	for _, d := range diags {
		if d.Check == "keystring" {
			keyFindings++
		}
	}
	if keyFindings != 2 {
		t.Fatalf("want exactly 2 surviving keystring findings (1 of 3 suppressed), got %d", keyFindings)
	}
}

// TestAllowSubsetRun pins that a -checks subset does not report
// allows for the skipped checks as unused: the allow fixture's
// keystring directives are dormant when only mapiter runs, and the
// only surviving diagnostic is the malformed (reason-less) one.
func TestAllowSubsetRun(t *testing.T) {
	diags := runTestdata(t, "allow", MapIter, DefaultConfig())
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Check))
	}
	want := []string{"25:allow"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("subset run mismatch:\n got  %v\n want %v\ndiags:\n%s", got, want, diagText(diags))
	}
}

func diagText(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestModuleIsLintClean is the tree gate: the full suite over every
// package in the module must report nothing. A new violation fails
// here (and in make lint / the CI lint job) until it is fixed or
// carries an annotation stating its reason.
func TestModuleIsLintClean(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadModulePackages()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	diags := Run(l.Fset, pkgs, Analyzers(), DefaultConfig())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestConfigPathsExist guards the rule tables against package renames
// rotting them into silent no-ops: every scoped path must name a real
// package in the module.
func TestConfigPathsExist(t *testing.T) {
	l := testLoader(t)
	real := map[string]bool{}
	for _, p := range l.ModulePaths() {
		real[p] = true
	}
	cfg := DefaultConfig()
	var scoped []string
	scoped = append(scoped, cfg.MapIterPkgs...)
	scoped = append(scoped, cfg.DetPathPkgs...)
	scoped = append(scoped, cfg.InitAddrPkgs...)
	scoped = append(scoped, cfg.DataPkg, cfg.ObsPkg)
	for _, r := range cfg.Layers {
		scoped = append(scoped, r.Pkg)
	}
	for p := range cfg.KeyStringFuncs {
		scoped = append(scoped, p)
	}
	for _, p := range scoped {
		if !real[p] {
			t.Errorf("config names package %q, which does not exist in the module", p)
		}
	}
}
