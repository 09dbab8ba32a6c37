package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"provnet/internal/auth"
	"provnet/internal/data"
	"provnet/internal/engine"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// TestScratchPoisonMatchesClean holds the per-wave and per-task scratch
// to its contract. The engines' wave scratch: what a wave's builtins and
// aggregate heads put there dies with the wave, and a list a stored row,
// shadow row, aggregate contribution or export keeps was copied out
// first; and the value slab a retraction carves its over-deleted heads
// from, poisoned when the engine hands it out again at the node's next
// retraction. The round scratch a pool worker hands its node tasks
// (roundScratch), poisoned where each task ends: under condensed
// provenance its table arena, and — that run seals with session MACs,
// as live-churn does — the tag buffer sealFrames lends the sealer. Also
// the BDD manager's decode scratch, which a delivered frame's
// annotations are copied out of at once. With all of it poisoned where
// its contract ends, the §6 Best-Path batch run, 8 link cuts and
// restores after it, and a leg where a withdrawal lands in an evaluating
// round must leave every table of every node, and every view row's
// provenance expression, as a clean run leaves them, after each
// quiescence. A path list left in the wave scratch reads back as poison;
// a node read from the decode scratch after its frame fails to render; a
// datagram sharing a tag with the buffer fails to open.
//
// In that last leg, x's cut of x→y ships its withdrawals in an
// evaluating round, they over-delete at y and queue y's own, and a cut
// at y starts y's next retraction before those have shipped or y has
// repaired (TestWithdrawalsOutliveNextRetraction pins the same span on a
// line): the head slab must not be handed out again until then.
//
// Each run goes twice: sequentially, where one scratch serves every node
// in turn, as in a one-processor run, and on core's pool of workers,
// one scratch each.
//
// A slab handed out too early can corrupt the clean run as it does the
// poisoned one, so the poisoned run is also held to oracles outside it.
// After each cut, its link and spCost rows and its bestPath rows'
// (S,D,C) equal a fresh run's on the graph without the cut links; after
// each restore, the batch run's. Which of two equal-cost paths bestPath
// keeps depends on arrival order, so each path list is checked on its
// own: a walk of links the graph has, from S to D, costing C.
func TestScratchPoisonMatchesClean(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Fatalf("GOMAXPROCS %d: the pool schedule needs at least four workers", runtime.GOMAXPROCS(0))
	}
	for _, prov := range []provenance.Mode{provenance.ModeNone, provenance.ModeCondensed, provenance.ModeLocal, provenance.ModeDistributed} {
		t.Run(prov.String(), func(t *testing.T) {
			t.Run("sequential", func(t *testing.T) { scratchPoisonMatchesClean(t, prov, true) })
			t.Run("pool", func(t *testing.T) { scratchPoisonMatchesClean(t, prov, false) })
		})
	}
}

func scratchPoisonMatchesClean(t *testing.T, prov provenance.Mode, sequential bool) {
	g := topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 6})
	everything := shape{view: true} // every table, and the view's rows with their provenance
	cuts := g.Links[:8]
	// The landed-withdrawal leg: x→y, and a link of y's to another node.
	xy := g.Links[0]
	var yz topo.Link
	for _, l := range g.Links {
		if l.From == xy.To && l.To != xy.From {
			yz = l
			break
		}
	}
	run := func() (snaps, tables []string, graphs []*topo.Graph) {
		cfg := Config{Source: BestPath, Graph: g, Prov: prov, Sequential: sequential}
		if prov == provenance.ModeCondensed {
			cfg.Auth, cfg.KeyBits = auth.SchemeSession, 512
		}
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := n.Driver()
		if _, err := n.Run(0); err != nil {
			t.Fatal(err)
		}
		snaps, tables, graphs = []string{render(n, everything) + kept(n)}, []string{render(n, tieFree(t, g))}, []*topo.Graph{g}
		ctx := context.Background()
		settle := func(err error, now *topo.Graph) {
			t.Helper()
			if err == nil {
				_, err = d.AwaitQuiescence(ctx)
			}
			if err != nil {
				t.Fatal(err)
			}
			snaps, tables, graphs = append(snaps, render(n, everything)+kept(n)), append(tables, render(n, tieFree(t, now))), append(graphs, now)
		}
		for _, l := range cuts {
			settle(d.CutLink(l.From, l.To), without(g, l))
			settle(d.SetLink(l.From, l.To, l.Cost), g)
		}
		x := n.Node(xy.From)
		var stale []data.Tuple
		for _, tu := range x.Engine.Tuples("link") {
			if tu.Args[1].Str == xy.To {
				stale = append(stale, tu)
			}
		}
		x.pendingRetract = append(x.pendingRetract, x.Engine.BeginRetractFacts(stale...)...)
		if _, err := n.runRound(ctx, true); err != nil {
			t.Fatal(err)
		}
		if len(n.Node(xy.To).pendingRetract) == 0 || !n.Node(xy.To).Engine.HasPendingRetract() {
			t.Fatalf("%s→%s's withdrawal left %s nothing to ship or repair", xy.From, xy.To, xy.To)
		}
		settle(d.CutLink(yz.From, yz.To), without(g, xy, yz))
		settle(errors.Join(d.SetLink(xy.From, xy.To, xy.Cost), d.SetLink(yz.From, yz.To, yz.Cost)), g)
		return snaps, tables, graphs
	}
	clean, _, _ := run()
	restore := engine.PoisonScratchForTesting()
	poisonWire.Store(true)
	poisoned, tables, graphs := run()
	poisonWire.Store(false)
	restore()
	for i, now := range graphs {
		want := tables[0]
		if now != g {
			fresh, _ := mustRun(t, Config{Source: BestPath, Graph: now})
			want = render(fresh, tieFree(t, now))
		}
		if tables[i] != want {
			t.Fatalf("step %d: poisoned scratch left\n%s\na fresh run on that step's links:\n%s", i, tables[i], want)
		}
	}
	for i := range clean {
		if poisoned[i] != clean[i] {
			t.Fatalf("step %d: poisoned scratch changed the tables:\n%s\nclean:\n%s", i, poisoned[i], clean[i])
		}
	}
	if !strings.Contains(clean[0], "bestPath") {
		t.Fatal("the batch run derived no bestPath rows")
	}
	if prov == provenance.ModeCondensed && !strings.Contains(clean[len(clean)-1], "view: bestPath") {
		t.Fatal("the view holds no bestPath rows")
	}
}

// kept renders what ModeLocal and ModeDistributed keep of the tuples a
// node imports: each row's provenance tree (its encoding, hashed), and
// each node's provenance store entries with the origins that shipped
// them.
func kept(n *Network) string {
	var sb strings.Builder
	for _, name := range n.Nodes() {
		nd := n.Node(name)
		for _, pred := range nd.Engine.Predicates() {
			for _, tu := range nd.Engine.Tuples(pred) {
				if tr, ok := nd.Engine.AnnotationOf(tu).(*provenance.Tree); ok {
					fmt.Fprintf(&sb, "%s tree: %s %x\n", name, tu, sha256.Sum256(tr.Marshal()))
				}
			}
		}
		if nd.Store != nil {
			for _, k := range nd.Store.Keys() {
				e, _ := nd.Store.Get(k)
				fmt.Fprintf(&sb, "%s store: %s %s %v\n", name, k, e.Tuple, e.Origins)
			}
		}
	}
	return sb.String()
}

// tieFree is the shape of the rows a fresh run must reproduce: link,
// spCost, and bestPath's (S,D,C), after checking that every bestPath
// row's path list is a walk of g's links from S to D costing C.
func tieFree(t *testing.T, g *topo.Graph) shape {
	adj := g.Adjacency()
	return shape{
		preds: []string{"link", "spCost", "bestPath"},
		cols:  map[string][]int{"bestPath": {0, 1, 3}},
		each: func(name string, tu data.Tuple) {
			if tu.Pred != "bestPath" {
				return
			}
			path := tu.Args[2].List
			if len(path) < 2 || path[0].Str != tu.Args[0].Str || path[len(path)-1].Str != tu.Args[1].Str {
				t.Fatalf("%s: %s: path does not run from S to D", name, tu)
			}
			var sum int64
			for i := 0; i+1 < len(path); i++ {
				c, ok := adj[path[i].Str][path[i+1].Str]
				if !ok {
					t.Fatalf("%s: %s: path uses missing link %s→%s", name, tu, path[i].Str, path[i+1].Str)
				}
				sum += c
			}
			if sum != tu.Args[3].AsInt() {
				t.Fatalf("%s: %s: path costs %d", name, tu, sum)
			}
		},
	}
}
