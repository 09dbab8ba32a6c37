package lint

import (
	"go/ast"
	"go/types"
)

// KeyString enforces PR 7's contract on the canonical string
// encoding: Tuple.Key()/Value.Key() allocate, and they and
// Tuple.AppendKey (the same bytes into a caller's buffer) exist only
// where their bytes ARE the contract — the wire codec (the data package
// itself) and the provenance pointer (provenance.KeyOf, sha256 over
// those bytes, frozen by docs/WIRE.md). Everywhere else comparisons
// and indexing must go through cached structural hashes + Equal;
// before PR 7 stray Key() callers were the dominant allocation source
// in the evaluation window, and this check was a code comment.
var KeyString = &Analyzer{
	Name: "keystring",
	Doc:  "Tuple.Key()/Value.Key() outside the wire/provenance contract",
	Run:  runKeyString,
}

func runKeyString(p *Pass) {
	cfg := p.Config
	if p.Path == cfg.DataPkg || p.inScope(cfg.KeyStringPkgs) {
		return
	}
	allowedFuncs := make(map[string]bool)
	for _, fn := range cfg.KeyStringFuncs[p.Path] {
		allowedFuncs[fn] = true
	}
	eachFunc(p, func(funcName string, body *ast.BlockStmt) {
		if allowedFuncs[funcName] {
			return
		}
		ast.Inspect(body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Name() != "Key" && fn.Name() != "AppendKey" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if !namedIn(sig.Recv().Type(), cfg.DataPkg, "Tuple", "Value") {
				return true
			}
			p.Reportf(sel.Pos(), "keystring",
				"%s.%s() outside the wire codec and provenance.KeyOf: compare with Equal/Hash instead, or annotate the contract site //provlint:allow keystring <reason>",
				types.TypeString(sig.Recv().Type(), types.RelativeTo(p.Pkg)), fn.Name())
			return true
		})
	})
}
