package provnet

import (
	"go/ast"
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

// moduleFiles parses every Go file of the module, test files included,
// keyed by slash path relative to its root.
func moduleFiles(t *testing.T) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// unreferenced returns, sorted as "path: Name", the exported top-level
// funcs, types, vars and consts of non-test files under internal/ that no
// other file names as an identifier. Methods are exempt: an interface
// reaches them without naming them.
func unreferenced(files map[string]*ast.File) []string {
	named := map[string]map[string]bool{} // identifier → files naming it
	for path, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if named[id.Name] == nil {
					named[id.Name] = map[string]bool{}
				}
				named[id.Name][path] = true
			}
			return true
		})
	}
	var out []string
	check := func(path string, id *ast.Ident) {
		if !id.IsExported() {
			return
		}
		for other := range named[id.Name] {
			if other != path {
				return
			}
		}
		out = append(out, path+": "+id.Name)
	}
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(path, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(path, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							check(path, id)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestNoUnreferencedIdentifiers keeps every exported top-level
// identifier under internal/ named by some file other than its own: one
// nothing else names is deleted or unexported, not parked. The first
// case is the shape the check exists for — a dead func and type beside a
// used func, and a method nothing names — and proves the check can fail.
func TestNoUnreferencedIdentifiers(t *testing.T) {
	parked := map[string]string{
		"internal/a/a.go": `package a
func Used() {}
func Dead() {}
type T struct{}
func (T) Method() {}
const unexported = 1
`,
		"internal/a/a_test.go":  "package a\nfunc TestUsed() { Used() }\n",
		"cmd/x/main.go":         "package main\nimport \"provnet/internal/a\"\nfunc main() { a.Used() }\n",
		"internal/b/b.go":       "package b\nvar Shared, Alone = 1, 2\n",
		"internal/b/b_other.go": "package b\nvar _ = Shared\n",
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for path, src := range parked {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = f
	}
	want := []string{"internal/a/a.go: Dead", "internal/a/a.go: T", "internal/b/b.go: Alone"}
	if got := unreferenced(files); !reflect.DeepEqual(got, want) {
		t.Fatalf("unreferenced(parked shape) = %v, want %v", got, want)
	}
	var found []string
	for _, id := range unreferenced(moduleFiles(t)) {
		if reachedBy[id] == "" {
			found = append(found, id)
		}
		delete(reachedBy, id)
	}
	if len(found) > 0 {
		t.Errorf("exported identifiers under internal/ that no other file names: %v — delete or unexport them, or name the caller that reaches them in reachedBy", found)
	}
	if len(reachedBy) > 0 {
		t.Errorf("reachedBy lists identifiers another file now names, or that are gone: %v", reachedBy)
	}
}

// reachedBy names, for each exported type no other file names, the
// exported function or field that hands it out, so callers outside its
// package use it without spelling it.
var reachedBy = map[string]string{
	"internal/auth/auth.go: HMACSigner":                "auth.NewHMACSigner returns it",
	"internal/auth/auth.go: Principal":                 "auth.Directory.Principals returns it",
	"internal/benchwork/benchwork.go: CutLinkResult":   "benchwork.LiveCutLink returns it",
	"internal/benchwork/queryload.go: QueryLoadResult": "benchwork.ConcurrentQueryLoad returns it",
	"internal/core/store.go: NodeState":                "core.StoreState.Nodes holds it (RecoverStoreLog returns the state)",
	"internal/core/store.go: StoredRow":                "core.NodeState.Rows holds it",
	"internal/engine/builtin.go: BuiltinFunc":          "the value type of engine.Builtins",
	"internal/provenance/store.go: Derivation":         "provenance.Entry.Derivs holds it",
	"internal/queryapi/schema.go: TracebackDeriv":      "queryapi.TracebackNode.Derivs holds it",
	"internal/queryapi/schema.go: TracebackNode":       "queryapi.FromTree returns it",
	"internal/trust/trust.go: AuditRecord":             "trust.Gate.Audit returns it",
}
