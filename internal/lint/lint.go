// Package lint is provlint's analysis kit: a dependency-free static
// analyzer suite (stdlib go/parser + go/types over export data from
// one `go list -export` run) that mechanically enforces the repo's
// determinism, layering, and hot-path invariants — the properties the
// runtime determinism pins (docs/ARCHITECTURE.md) can only spot-check
// after the fact. docs/LINTING.md documents each check, the runtime
// pin it backs up, and the `//provlint:allow <check> <reason>` escape
// hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// An Analyzer checks one invariant over one package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapIter, DetPath, KeyString, Layering, NilMetrics, InitAddr}
}

// A Pass hands one type-checked package to an analyzer.
type Pass struct {
	Path   string
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Config *Config

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, check, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	})
}

// inScope reports whether the pass's package is in the given
// exact-path scope list.
func (p *Pass) inScope(paths []string) bool {
	for _, s := range paths {
		if p.Path == s {
			return true
		}
	}
	return false
}

// allowDirective is the comment prefix of the escape hatch:
//
//	//provlint:allow <check> <reason>
//
// placed on the flagged line or the line directly above it. Every
// allow must name the check it suppresses and give a reason; an allow
// that suppresses nothing is itself a finding (stale annotations rot
// into silent holes).
const allowDirective = "//provlint:allow"

type allowEntry struct {
	pos    token.Position
	check  string
	reason string
	used   bool
}

// collectAllows indexes every allow directive in the package by
// (filename, target line): a directive trailing code suppresses its
// own line, one on a line of its own suppresses the next line —
// never both, so an allow can't silently swallow the finding on an
// adjacent statement. Malformed directives are reported immediately.
func collectAllows(pkg *Package, diags *[]Diagnostic) map[string]map[int][]*allowEntry {
	idx := make(map[string]map[int][]*allowEntry)
	srcLines := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				pos := pkg.fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, allowDirective))
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Pos:     pos,
						Check:   "allow",
						Message: "malformed directive: want //provlint:allow <check> <reason>",
					})
					continue
				}
				target := pos.Line
				if ownLine(srcLines, pos) {
					target = pos.Line + 1
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowEntry)
					idx[pos.Filename] = byLine
				}
				byLine[target] = append(byLine[target], &allowEntry{
					pos:    pos,
					check:  fields[0],
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return idx
}

// ownLine reports whether only whitespace precedes the comment at pos.
func ownLine(cache map[string][]string, pos token.Position) bool {
	lines, ok := cache[pos.Filename]
	if !ok {
		b, err := os.ReadFile(pos.Filename)
		if err == nil {
			lines = strings.Split(string(b), "\n")
		}
		cache[pos.Filename] = lines
	}
	if pos.Line-1 >= len(lines) || pos.Column-1 > len(lines[pos.Line-1]) {
		return false
	}
	return strings.TrimSpace(lines[pos.Line-1][:pos.Column-1]) == ""
}

// Run applies the analyzers to each package, resolves allow
// directives (a directive on the flagged line or the line above
// suppresses matching findings), reports unused directives, and
// returns all surviving diagnostics sorted by position.
//
// An unused directive is only reported when the check it names was
// actually part of this run — under a -checks subset, allows for the
// skipped checks are dormant, not stale. A directive naming a check
// that does not exist at all is always reported (typos must not rot
// into silent holes).
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		pass := &Pass{
			Path:   pkg.Path,
			Fset:   fset,
			Files:  pkg.Files,
			Pkg:    pkg.Pkg,
			Info:   pkg.Info,
			Config: cfg,
			diags:  &raw,
		}
		for _, a := range analyzers {
			a.Run(pass)
		}

		var kept []Diagnostic
		allows := collectAllows(pkg, &kept)
		for _, d := range raw {
			if e := matchAllow(allows, d); e != nil {
				e.used = true
				continue
			}
			kept = append(kept, d)
		}
		for _, byLine := range allows {
			for _, entries := range byLine {
				for _, e := range entries {
					switch {
					case e.used:
					case !known[e.check]:
						kept = append(kept, Diagnostic{
							Pos:     e.pos,
							Check:   "allow",
							Message: fmt.Sprintf("//provlint:allow names unknown check %q", e.check),
						})
					case ran[e.check]:
						kept = append(kept, Diagnostic{
							Pos:     e.pos,
							Check:   "allow",
							Message: fmt.Sprintf("unused //provlint:allow %s directive (suppresses nothing; remove it)", e.check),
						})
					}
				}
			}
		}
		out = append(out, kept...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

func matchAllow(idx map[string]map[int][]*allowEntry, d Diagnostic) *allowEntry {
	for _, e := range idx[d.Pos.Filename][d.Pos.Line] {
		if e.check == d.Check {
			return e
		}
	}
	return nil
}

// --- shared type helpers ---

// namedIn dereferences pointers and reports whether t is the named
// type pkgPath.name (or one of names when several are given).
func namedIn(t types.Type, pkgPath string, names ...string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}

// funcObjIs reports whether obj is the function pkgPath.name.
func funcObjIs(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// eachFunc walks every function (decl or literal body is walked by
// the visitor itself) in the pass, handing the enclosing FuncDecl
// name ("" at file scope) to the visitor.
func eachFunc(p *Pass, visit func(funcName string, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(fd.Name.Name, fd.Body)
		}
	}
}
