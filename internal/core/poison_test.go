package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"provnet/internal/auth"
	"provnet/internal/engine"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// TestScratchPoisonMatchesClean holds the per-wave and per-round scratch
// to its contract. The engines' wave scratch: what a wave's builtins and
// aggregate heads put there dies with the wave, and a list a stored row,
// shadow row, aggregate contribution or export keeps was copied out
// first; and the value slab a retraction carves its over-deleted heads
// from, poisoned when the engine hands it out again at the node's next
// retraction (TestWithdrawalsOutliveNextRetraction pins that span).
// Under condensed provenance, also the round's table
// arena (nodeWire.table), which dies when the round's frames are sent,
// the BDD manager's decode scratch, which a delivered frame's annotations
// are copied out of at once, and — that run seals with session MACs, as
// live-churn does — the tag buffer sealFrames lends the sealer, which
// dies once the round's datagrams are built. With all of it poisoned
// where its contract ends, the §6 Best-Path batch run and 8 link cuts
// and restores after it must leave every table of every node, and every
// view row's provenance expression, as a clean run leaves them, after
// each quiescence. A path list left in the wave scratch reads back as
// poison; a node read from the decode scratch after its frame fails to
// render; a datagram sharing a tag with the buffer fails to open.
func TestScratchPoisonMatchesClean(t *testing.T) {
	for _, prov := range []provenance.Mode{provenance.ModeNone, provenance.ModeCondensed} {
		t.Run(prov.String(), func(t *testing.T) { scratchPoisonMatchesClean(t, prov) })
	}
}

func scratchPoisonMatchesClean(t *testing.T, prov provenance.Mode) {
	g := topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 6})
	run := func() []string {
		cfg := Config{Source: BestPath, Graph: g, Prov: prov}
		if prov == provenance.ModeCondensed {
			cfg.Auth, cfg.KeyBits = auth.SchemeSession, 512
		}
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := n.Driver()
		snap := func() string {
			var b strings.Builder
			view := d.ReadView()
			for _, name := range n.Nodes() {
				e := n.Node(name).Engine
				for _, pred := range e.Predicates() {
					for _, tu := range e.Tuples(pred) {
						fmt.Fprintf(&b, "%s: %s\n", name, tu)
					}
					for _, row := range view.Rows(name, pred) {
						fmt.Fprintf(&b, "%s view: %s %s\n", name, row.Tuple, row.Prov)
					}
				}
			}
			return b.String()
		}
		if _, err := n.Run(0); err != nil {
			t.Fatal(err)
		}
		snaps := []string{snap()}
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
	poisonWire.Store(true)
	poisoned := run()
	poisonWire.Store(false)
	restore()
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
