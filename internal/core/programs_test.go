package core

import (
	"testing"

	"provnet/internal/provenance"
	"provnet/internal/semiring"
	"provnet/internal/topo"
)

func TestDistanceVectorMatchesDijkstra(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
		n, _ := mustRun(t, Config{Source: DistanceVector, Graph: g})
		for _, src := range g.Nodes {
			want := g.Dijkstra(src)
			got := map[string]int64{}
			for _, tu := range n.Tuples(src, "dvCost") {
				got[tu.Args[1].Str] = tu.Args[2].AsInt()
			}
			for dst, cost := range want {
				if dst == src {
					continue
				}
				if got[dst] != cost {
					t.Fatalf("seed %d: dvCost(%s,%s) = %d, oracle %d", seed, src, dst, got[dst], cost)
				}
			}
		}
	}
}

func TestPathVectorMatchesDijkstraAndCarriesPaths(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 9, AvgOutDegree: 3, MaxCost: 10, Seed: 7})
	n, _ := mustRun(t, Config{Source: PathVector, Graph: g})
	adj := g.Adjacency()
	for _, src := range g.Nodes {
		want := g.Dijkstra(src)
		for _, tu := range n.Tuples(src, "bestRoute") {
			dst := tu.Args[1].Str
			path := tu.Args[2].List
			cost := tu.Args[3].AsInt()
			if want[dst] != cost {
				t.Fatalf("bestRoute(%s,%s) = %d, oracle %d", src, dst, cost, want[dst])
			}
			// The advertised path must be a real path with the claimed cost.
			var sum int64
			for i := 0; i+1 < len(path); i++ {
				c, ok := adj[path[i].Str][path[i+1].Str]
				if !ok {
					t.Fatalf("path uses missing link: %v", tu)
				}
				sum += c
			}
			if sum != cost {
				t.Fatalf("path sums to %d, claims %d: %v", sum, cost, tu)
			}
		}
	}
}

func TestASGranularityProvenance(t *testing.T) {
	// §5 "Provenance granularity": aggregate node-level provenance to the
	// AS level by renaming principals.
	g := topo.RandomConnected(topo.Options{N: 6, AvgOutDegree: 3, Seed: 4})
	n, _ := mustRun(t, Config{
		Source: ReachableNDlog, Graph: g,
		Prov: provenance.ModeCondensed,
	})
	asOf := func(node string) string {
		// n0..n2 are AS "as1", the rest "as2".
		if node < "n3" {
			return "as1"
		}
		return "as2"
	}
	src := g.Nodes[0]
	for _, tu := range n.Tuples(src, "reachable") {
		p := n.Poly(src, tu)
		asP := p.MapVars(asOf)
		for _, v := range asP.Support() {
			if v != "as1" && v != "as2" {
				t.Fatalf("AS-level provenance has node var %q: %s", v, asP)
			}
		}
		// AS-level provenance is coarser or equal: derivable node sets map
		// onto derivable AS sets.
		ok := semiring.Eval[bool](p, semiring.Bool{}, func(string) bool { return true })
		asOK := semiring.Eval[bool](asP, semiring.Bool{}, func(string) bool { return true })
		if ok != asOK {
			t.Fatal("granularity mapping must preserve derivability")
		}
	}
}
