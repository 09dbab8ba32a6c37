package provnet

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// moduleImports maps every package directory of the module (slash
// paths relative to its root, "." for the root package) to the module
// packages its files import — test files included, so a package that
// only another package's tests use still has an importer.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	imports := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if _, ok := imports[dir]; !ok {
			imports[dir] = nil // a package with no module imports is still a package
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "provnet" {
				imports[dir] = append(imports[dir], ".")
			} else if rest, ok := strings.CutPrefix(p, "provnet/"); ok {
				imports[dir] = append(imports[dir], rest)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imports
}

// orphans returns, sorted, the internal/ packages no import chain
// reaches from a root: the root package, a command, an example or the
// benchmark. A package's own tests import it, but they hang off the
// package itself, so they reach it only if something else already does.
func orphans(imports map[string][]string) []string {
	reached := map[string]bool{}
	var visit func(string)
	visit = func(pkg string) {
		if reached[pkg] {
			return
		}
		reached[pkg] = true
		for _, dep := range imports[pkg] {
			visit(dep)
		}
	}
	for pkg := range imports {
		if pkg == "." || pkg == "bench" || strings.HasPrefix(pkg, "cmd/") || strings.HasPrefix(pkg, "examples/") {
			visit(pkg)
		}
	}
	var out []string
	for pkg := range imports {
		if strings.HasPrefix(pkg, "internal/") && !reached[pkg] {
			out = append(out, pkg)
		}
	}
	sort.Strings(out)
	return out
}

// TestNoOrphanPackages keeps every package under internal/ reachable
// from something that runs (docs/LINTING.md): a package nothing imports
// is deleted, not parked. The first case is the shape the check exists
// for — internal/trace imported by nothing, internal/bloom imported
// only by it — and proves the check can fail.
func TestNoOrphanPackages(t *testing.T) {
	parked := map[string][]string{
		".":              {"internal/core"},
		"cmd/provnet":    {"."},
		"internal/core":  {"internal/data"},
		"internal/data":  nil,
		"internal/trace": {"internal/bloom", "internal/data"},
		"internal/bloom": {"internal/bloom"}, // its own external tests
	}
	if got, want := orphans(parked), []string{"internal/bloom", "internal/trace"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("orphans(parked shape) = %v, want %v", got, want)
	}
	if got := orphans(moduleImports(t)); len(got) != 0 {
		t.Errorf("packages under internal/ that no command, example, bench/ or the root package reaches: %v — wire them in or delete them", got)
	}
}
