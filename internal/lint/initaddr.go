package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// InitAddr guards the hot packages against a variable heap-allocated on
// every pass for the sake of one branch. A variable declared in an if
// or switch statement's init lives from that init on, so when its
// address escapes anywhere in the statement — typically `&err` stored
// on the error path — escape analysis moves it to the heap where it is
// declared: every execution allocates, the passes that never reach the
// branch included. Declaring the escaping copy inside the branch
// allocates only there. core's store-error latch allocated one error
// box per store event this way.
var InitAddr = &Analyzer{
	Name: "initaddr",
	Doc:  "address taken of a variable declared in an if or switch init (heap-allocated on every pass)",
	Run:  runInitAddr,
}

func runInitAddr(p *Pass) {
	if !p.inScope(p.Config.InitAddrPkgs) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var init ast.Stmt
			switch s := n.(type) {
			case *ast.IfStmt:
				init = s.Init
			case *ast.SwitchStmt:
				init = s.Init
			case *ast.TypeSwitchStmt:
				init = s.Init
			}
			as, ok := init.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE {
				return true
			}
			declared := map[types.Object]bool{}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && p.Info.Defs[id] != nil {
					declared[p.Info.Defs[id]] = true
				}
			}
			ast.Inspect(n, func(m ast.Node) bool {
				u, ok := m.(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					return true
				}
				id, ok := ast.Unparen(u.X).(*ast.Ident)
				if ok && declared[p.Info.Uses[id]] {
					p.Reportf(u.Pos(), "initaddr",
						"&%s: %s is declared in the statement's init, so it is heap-allocated on every pass; declare the escaping copy inside the branch",
						id.Name, id.Name)
				}
				return true
			})
			return true
		})
	}
}
