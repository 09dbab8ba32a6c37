package lint

import "strings"

// Layering enforces the import boundaries of docs/ARCHITECTURE.md's
// package map: engine never imports obs or core (it is observed and
// driven from above, through sampling), the transports (netsim, nettcp,
// faultnet) never import auth, core, obs or provenance (they carry
// opaque datagrams under core.Transport), data imports no other
// internal package (it is the bottom of the map), and queryapi never
// touches engine directly (it reads published ReadView snapshots). These boundaries are what let
// PR 8 instrument four layers without entangling them; until now they
// held by review only.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "import crosses a package boundary from the architecture map",
	Run:  runLayering,
}

func runLayering(p *Pass) {
	var rule *LayerRule
	for i := range p.Config.Layers {
		if p.Config.Layers[i].Pkg == p.Path {
			rule = &p.Config.Layers[i]
			break
		}
	}
	if rule == nil {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !denied(rule, path) {
				continue
			}
			why := rule.Why
			if why != "" {
				why = " (" + why + ")"
			}
			p.Reportf(imp.Pos(), "layering",
				"%s must not import %s%s", p.Path, path, why)
		}
	}
}

func denied(rule *LayerRule, path string) bool {
	for _, ex := range rule.Except {
		if path == ex {
			return false
		}
	}
	for _, d := range rule.Deny {
		if strings.HasSuffix(d, "/") {
			if strings.HasPrefix(path, d) && path != rule.Pkg {
				return true
			}
		} else if path == d {
			return true
		}
	}
	return false
}
