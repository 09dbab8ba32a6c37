package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetPath keeps the deterministic evaluation core free of hidden
// nondeterminism inputs: reading the wall clock (time.Now/Since),
// randomness (any math/rand import), or formatting a map value
// directly (fmt sorts keys since Go 1.12, but pointer- and NaN-keyed
// maps still render run-dependent bytes). Bit-identical replay —
// parallel ≡ sequential ≡ TCP, and storelog recovery ≡ the
// live run — only holds if every input reaches the engine through the
// explicit event stream. Timing for metrics is legitimate and lives
// behind per-site annotations (the scheduler's round and phase timers,
// the driver's epoch clock).
var DetPath = &Analyzer{
	Name: "detpath",
	Doc:  "wall clock, randomness, or map formatting in the deterministic core",
	Run:  runDetPath,
}

func runDetPath(p *Pass) {
	if !p.inScope(p.Config.DetPathPkgs) {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "detpath",
					"import of %s in a deterministic package: derive pseudo-randomness from Config.Seed instead", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj := p.Info.Uses[n.Sel]
				if funcObjIs(obj, "time", "Now") || funcObjIs(obj, "time", "Since") {
					p.Reportf(n.Pos(), "detpath",
						"time.%s on a deterministic path: wall-clock reads diverge across schedules; thread logical time through the event stream or annotate the timing site", obj.Name())
				}
			case *ast.CallExpr:
				checkMapFormat(p, n)
			}
			return true
		})
	}
}

// checkMapFormat flags fmt verbs applied to map-typed arguments.
func checkMapFormat(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := p.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	name := fn.Name()
	if !strings.Contains(name, "Print") && !strings.Contains(name, "print") &&
		name != "Errorf" && name != "Sprintf" && name != "Fprintf" && name != "Appendf" {
		return
	}
	for _, arg := range call.Args {
		t := p.Info.TypeOf(arg)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); isMap {
			p.Reportf(arg.Pos(), "detpath",
				"formatting a map (%s) with fmt.%s: rendered bytes can depend on key representation; print sorted entries explicitly",
				types.TypeString(t, types.RelativeTo(p.Pkg)), name)
		}
	}
}
