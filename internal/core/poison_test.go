package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"provnet/internal/engine"
	"provnet/internal/topo"
)

// TestScratchPoisonMatchesClean holds the engines' wave scratch to its
// contract: what a wave's builtins and body copies put there dies with
// the wave, and a list a stored row, shadow row, aggregate contribution,
// dependency edge or export keeps was copied out first. With the scratch
// poisoned at every wave reset, the §6 Best-Path batch run and 8 link
// cuts and restores after it must leave every table of every node as a
// clean run leaves it, after each quiescence. A path list left in the
// scratch reads back as poison.
func TestScratchPoisonMatchesClean(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 6})
	run := func() []string {
		n, err := NewNetwork(Config{Source: BestPath, Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		snap := func() string {
			var b strings.Builder
			for _, name := range n.Nodes() {
				e := n.Node(name).Engine
				for _, pred := range e.Predicates() {
					for _, tu := range e.Tuples(pred) {
						fmt.Fprintf(&b, "%s: %s\n", name, tu)
					}
				}
			}
			return b.String()
		}
		if _, err := n.Run(0); err != nil {
			t.Fatal(err)
		}
		snaps := []string{snap()}
		d := n.Driver()
		ctx := context.Background()
		settle := func(err error) {
			t.Helper()
			if err == nil {
				_, err = d.AwaitQuiescence(ctx)
			}
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap())
		}
		for _, l := range g.Links[:8] {
			settle(d.CutLink(l.From, l.To))
			settle(d.SetLink(l.From, l.To, l.Cost))
		}
		return snaps
	}
	clean := run()
	restore := engine.PoisonScratchForTesting()
	poisoned := run()
	restore()
	for i := range clean {
		if poisoned[i] != clean[i] {
			t.Fatalf("step %d: poisoned scratch changed the tables:\n%s\nclean:\n%s", i, poisoned[i], clean[i])
		}
	}
	if !strings.Contains(clean[0], "bestPath") {
		t.Fatal("the batch run derived no bestPath rows")
	}
}
