package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"provnet/internal/auth"
	"provnet/internal/data"
	"provnet/internal/obs"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// TestLiveMatchesBatch pins the compatibility half of the lifecycle API:
// driving the §6 Best-Path workload through Start/AwaitQuiescence yields
// tables, rounds, transport stats, and crypto counters bit-identical to
// the batch Run(0), across all three transport schedules.
func TestLiveMatchesBatch(t *testing.T) {
	schedules := []struct {
		name string
		mut  func(*Config)
	}{
		{"rsa-per-tuple", func(c *Config) { c.Unbatched = true }},
		{"rsa-per-round", func(c *Config) {}},
		{"session-mac", func(c *Config) { c.Auth = auth.SchemeSession }},
	}
	for _, s := range schedules {
		t.Run(s.name, func(t *testing.T) {
			cfg := bestPathCfg()
			cfg.KeyBits = 512 // match mustRun's fast test keys
			s.mut(&cfg)
			nBatch, repBatch := mustRun(t, cfg)

			nLive, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := nLive.Driver()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := d.Start(ctx); err != nil {
				t.Fatal(err)
			}
			repLive, err := d.AwaitQuiescence(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			if a, b := render(nBatch, shape{}), render(nLive, shape{}); a != b {
				t.Fatalf("tables differ\n--- batch ---\n%s--- live ---\n%s", a, b)
			}
			if repBatch.Rounds != repLive.Rounds {
				t.Errorf("rounds: batch %d, live %d", repBatch.Rounds, repLive.Rounds)
			}
			if a, b := nBatch.Transport().Stats(), nLive.Transport().Stats(); a != b {
				t.Errorf("netsim stats: batch %+v, live %+v", a, b)
			}
			if repBatch.Signed != repLive.Signed || repBatch.Verified != repLive.Verified ||
				repBatch.Handshakes != repLive.Handshakes ||
				repBatch.SealedMAC != repLive.SealedMAC || repBatch.OpenedMAC != repLive.OpenedMAC {
				t.Errorf("crypto ops: batch %+v, live %+v", repBatch, repLive)
			}
			if repBatch.Derivations != repLive.Derivations || repBatch.TuplesStored != repLive.TuplesStored {
				t.Errorf("engine stats: batch %d/%d, live %d/%d",
					repBatch.Derivations, repBatch.TuplesStored, repLive.Derivations, repLive.TuplesStored)
			}
		})
	}
}

// pathUsesEdge reports whether a bestPath path-list value routes over the
// directed edge from→to.
func pathUsesEdge(v data.Value, from, to string) bool {
	if v.Kind != data.KindList {
		return false
	}
	for i := 0; i+1 < len(v.List); i++ {
		if v.List[i].Str == from && v.List[i+1].Str == to {
			return true
		}
	}
	return false
}

// cutCandidate picks a link that some installed best path actually routes
// over, so cutting it forces visible re-convergence.
func cutCandidate(t *testing.T, n *Network, g *topo.Graph) topo.Link {
	t.Helper()
	for _, l := range g.Links {
		for _, name := range n.Nodes() {
			for _, bp := range n.Tuples(name, "bestPath") {
				if pathUsesEdge(bp.Args[2], l.From, l.To) {
					return l
				}
			}
		}
	}
	t.Fatal("no link participates in any best path")
	return topo.Link{}
}

// TestCutRestoreCompactsTables runs 200 cuts and restores through one
// Driver in live-churn's configuration (Best-Path, session MACs,
// condensed provenance) and holds every table to its dead rows: after
// each quiescence its insertion order may keep at most as many dead rows
// as live ones (plus one), which the compaction at the end of every
// fixpoint and repair guarantees. Without it the network's tables held
// 589 slots for 500 live rows at the start and 10 967 for 495 after the
// 200 pairs.
func TestCutRestoreCompactsTables(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 5})
	n, err := NewNetwork(Config{Source: BestPath, Graph: g, Auth: auth.SchemeSession, Prov: provenance.ModeCondensed, KeyBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx := context.Background()
	settle := func(step int, err error) {
		t.Helper()
		if err == nil {
			_, err = d.AwaitQuiescence(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range n.Nodes() {
			for _, pred := range []string{"link", "path", "spCost", "bestPath"} {
				if live, slots := n.Node(name).Engine.TableSlots(pred); slots > 2*live+1 {
					t.Fatalf("step %d: %s's %s table holds %d slots for %d live rows", step, name, pred, slots, live)
				}
			}
		}
	}
	settle(0, nil)
	for i := 0; i < 200; i++ {
		l := g.Links[i%len(g.Links)]
		settle(2*i+1, d.CutLink(l.From, l.To))
		settle(2*i+2, d.SetLink(l.From, l.To, l.Cost))
	}
}

// TestCutRestoreShipsNoIdleWithdrawals runs 40 cut+restore pairs of
// Best-Path through a sequential Driver and counts the inbound
// withdrawals that found neither a row holding their sender's support nor
// a shadow row (engine.Stats.IdleWithdrawals): a withdrawal the sender
// shipped for a head its rules no longer derive. Over-deletion used to
// walk a dependency index that kept edges to heads already withdrawn or
// displaced, and on this script its receivers counted 220 such
// withdrawals; evaluating the rules on the dying rows finds none.
func TestCutRestoreShipsNoIdleWithdrawals(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 16, AvgOutDegree: 3, MaxCost: 10, Seed: 5})
	n, err := NewNetwork(Config{Source: BestPath, Graph: g, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
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
	}
	settle(nil)
	for i := 0; i < 40; i++ {
		l := g.Links[i%len(g.Links)]
		settle(d.CutLink(l.From, l.To))
		settle(d.SetLink(l.From, l.To, l.Cost))
	}
	var idle int64
	for _, name := range n.Nodes() {
		idle += n.Node(name).Engine.Stats.IdleWithdrawals
	}
	if idle != 0 {
		t.Fatalf("%d inbound withdrawals found nothing to withdraw, want 0", idle)
	}
}

// TestCutMatchesFreshAcrossPrograms drives the paper's programs through
// the cut script on the live Driver, under AuthNone on five graphs
// (seeds 4–8) and AuthRSA on the first, and after every quiescence holds
// the tie-free tables to a fresh Run(0) over the links of that moment.
// SeNDlog's s3 ships to the destination its @Z binds, and RSA makes
// every head carry its asserter: the repair's re-derivation must rebuild
// both.
//
// DistanceVector is not in the list, and PathVector runs seeds 4–6
// only: neither re-converges to the fresh tables after some cuts. A
// neighbour's cost that rises arrives as a primary-key replacement,
// which retracts nothing, and the row it should replace survives because
// aggregate selection shadows the worse replacement (ROADMAP item 11).
// TestDistanceVectorCutDivergence and TestPathVectorCutDivergence pin
// what they get wrong.
func TestCutMatchesFreshAcrossPrograms(t *testing.T) {
	programs := []struct {
		name, source string
		shape        shape
		seeds        []int64
	}{
		{"ReachableNDlog", ReachableNDlog, only("reachable"), cutSeeds},
		{"ReachableSeNDlog", ReachableSeNDlog, only("reachable"), cutSeeds},
		{"PathVector", PathVector, routeCosts, cutSeeds[:3]},
		{"BestPath", BestPath, pathCosts, cutSeeds},
	}
	for _, prog := range programs {
		for _, scheme := range []auth.Scheme{auth.SchemeNone, auth.SchemeRSA} {
			seeds := prog.seeds
			if scheme == auth.SchemeRSA {
				seeds = seeds[:1] // a network's RSA keys cost about 40 ms: the asserters on one graph
			}
			t.Run(fmt.Sprintf("%s/%s", prog.name, scheme), func(t *testing.T) {
				for _, seed := range seeds {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						cutScript(t, Config{Source: prog.source, Auth: scheme, KeyBits: 512}, seed, prog.shape, func(m moment) {
							got, want := strings.Join(m.live, ""), strings.Join(m.fresh, "")
							if got != want {
								t.Fatalf("step %d %s: live tables differ from a fresh run\n--- live ---\n%s--- fresh ---\n%s", m.step, m.what, got, want)
							}
							if len(m.live) == 0 {
								t.Fatalf("step %d: no rows to compare", m.step)
							}
						})
					})
				}
			})
		}
	}
}

// cutSeeds are the topology seeds the cut script runs on.
var cutSeeds = []int64{4, 5, 6, 7, 8}

// routeCosts and pathCosts are PathVector's and Best-Path's tie-free
// tables: which of two equal-cost routes survives depends on arrival
// order, so bestRoute and bestPath render as (S,D,C).
var (
	routeCosts = shape{preds: []string{"rCost", "bestRoute"}, cols: map[string][]int{"bestRoute": {0, 1, 3}}}
	pathCosts  = shape{preds: []string{"spCost", "bestPath"}, cols: map[string][]int{"bestPath": {0, 1, 3}}}
)

// TestDistanceVectorCutDivergence runs TestCutMatchesFreshAcrossPrograms's
// script on DistanceVector (AuthNone, seed 4) and pins, per step, the dv
// and dvCost rows the cut run has that a fresh run lacks (+) and lacks
// that it has (-): ROADMAP item 11's wrong answer, held exactly so that
// a change to retraction shows up here. Item 11 makes every step's diff
// empty and moves DistanceVector into the test above.
//
// Over-deletion that evaluates the rules on the dying rows differs from
// the dependency index it replaced in one row here. The index had the
// same diffs, less "+n0: dv(n0, n5, n1, 14)" at steps 0–3 and plus
// "-n0: dv(n0, n5, n1, 14)" at steps 4–5. That row is a consequence of a
// dv row a primary-key replacement displaced: the index reached it
// through an edge it kept, and evaluation, which cannot see a dead row,
// does not, so the row stays through the cuts and is present when the
// restores bring back the fresh run's.
func TestDistanceVectorCutDivergence(t *testing.T) {
	want := []string{
		0: `
+n0: dv(n0, n1, n6, 15)
+n0: dv(n0, n5, n1, 14)
+n0: dvCost(n0, n1, 15)
+n1: dv(n1, n1, n7, 11)
+n1: dvCost(n1, n1, 11)
+n2: dv(n2, n1, n6, 22)
+n2: dvCost(n2, n1, 22)
+n3: dv(n3, n1, n7, 18)
+n3: dvCost(n3, n1, 18)
+n6: dv(n6, n1, n7, 12)
+n6: dvCost(n6, n1, 12)
+n7: dv(n7, n1, n0, 10)
+n7: dvCost(n7, n1, 10)
-n0: dv(n0, n1, n4, 22)
-n0: dv(n0, n1, n6, 17)
-n0: dvCost(n0, n1, 17)
-n1: dvCost(n1, n1, 17)
-n2: dv(n2, n1, n6, 24)
-n2: dvCost(n2, n1, 24)
-n3: dvCost(n3, n1, 22)
-n6: dvCost(n6, n1, 14)
-n7: dv(n7, n1, n0, 22)
-n7: dvCost(n7, n1, 22)
`,
		1: `
+n0: dv(n0, n1, n6, 15)
+n0: dv(n0, n5, n1, 14)
+n0: dvCost(n0, n1, 15)
+n1: dv(n1, n1, n7, 11)
+n1: dvCost(n1, n1, 11)
+n2: dv(n2, n1, n6, 22)
+n2: dvCost(n2, n1, 22)
+n3: dv(n3, n1, n7, 18)
+n3: dvCost(n3, n1, 18)
+n6: dv(n6, n1, n7, 12)
+n6: dvCost(n6, n1, 12)
+n7: dv(n7, n1, n0, 10)
+n7: dvCost(n7, n1, 10)
-n0: dv(n0, n1, n4, 22)
-n0: dv(n0, n1, n6, 17)
-n0: dvCost(n0, n1, 17)
-n1: dvCost(n1, n1, 17)
-n2: dv(n2, n1, n6, 24)
-n2: dvCost(n2, n1, 24)
-n3: dvCost(n3, n1, 22)
-n6: dvCost(n6, n1, 14)
-n7: dv(n7, n1, n0, 22)
-n7: dvCost(n7, n1, 22)
`,
		2: `
+n0: dv(n0, n1, n6, 15)
+n0: dv(n0, n3, n2, 15)
+n0: dv(n0, n5, n1, 14)
+n0: dvCost(n0, n1, 15)
+n1: dv(n1, n1, n7, 11)
+n1: dvCost(n1, n1, 11)
+n2: dv(n2, n1, n6, 22)
+n2: dvCost(n2, n1, 22)
+n3: dv(n3, n1, n7, 18)
+n3: dvCost(n3, n1, 18)
+n4: dv(n4, n3, n2, 13)
+n4: dvCost(n4, n3, 13)
+n5: dv(n5, n3, n2, 15)
+n6: dv(n6, n1, n7, 12)
+n6: dvCost(n6, n1, 12)
+n7: dv(n7, n1, n0, 10)
+n7: dvCost(n7, n1, 10)
-n0: dv(n0, n1, n4, 22)
-n0: dv(n0, n1, n6, 17)
-n0: dvCost(n0, n1, 17)
-n1: dvCost(n1, n1, 17)
-n2: dv(n2, n1, n6, 24)
-n2: dvCost(n2, n1, 24)
-n3: dvCost(n3, n1, 22)
-n4: dv(n4, n3, n5, 16)
-n4: dvCost(n4, n3, 16)
-n6: dvCost(n6, n1, 14)
-n7: dv(n7, n1, n0, 22)
-n7: dvCost(n7, n1, 22)
`,
		3: `
+n0: dv(n0, n1, n6, 15)
+n0: dv(n0, n3, n2, 15)
+n0: dv(n0, n5, n1, 14)
+n0: dvCost(n0, n1, 15)
+n1: dv(n1, n1, n7, 11)
+n1: dv(n1, n2, n4, 12)
+n1: dvCost(n1, n1, 11)
+n2: dv(n2, n1, n6, 22)
+n2: dvCost(n2, n1, 22)
+n3: dv(n3, n1, n7, 18)
+n3: dvCost(n3, n1, 18)
+n4: dv(n4, n3, n2, 13)
+n4: dvCost(n4, n3, 13)
+n5: dv(n5, n3, n2, 15)
+n6: dv(n6, n1, n7, 12)
+n6: dvCost(n6, n1, 12)
+n7: dv(n7, n1, n0, 10)
+n7: dvCost(n7, n1, 10)
-n0: dv(n0, n1, n4, 22)
-n0: dv(n0, n1, n6, 17)
-n0: dvCost(n0, n1, 17)
-n1: dvCost(n1, n1, 17)
-n2: dv(n2, n1, n6, 24)
-n2: dvCost(n2, n1, 24)
-n3: dvCost(n3, n1, 22)
-n4: dv(n4, n3, n5, 16)
-n4: dvCost(n4, n3, 16)
-n6: dvCost(n6, n1, 14)
-n7: dv(n7, n1, n0, 22)
-n7: dvCost(n7, n1, 22)
`,
		4: `
+n0: dv(n0, n1, n6, 15)
+n0: dv(n0, n3, n2, 15)
+n1: dv(n1, n2, n4, 12)
+n4: dv(n4, n3, n2, 13)
+n4: dvCost(n4, n3, 13)
+n5: dv(n5, n3, n2, 15)
-n0: dv(n0, n0, n1, 11)
-n0: dv(n0, n3, n1, 11)
-n0: dv(n0, n7, n1, 6)
-n4: dv(n4, n3, n5, 16)
-n4: dvCost(n4, n3, 16)
`,
		5: `
+n0: dv(n0, n1, n6, 15)
+n1: dv(n1, n2, n4, 12)
+n2: dv(n2, n2, n6, 21)
+n2: dv(n2, n3, n6, 17)
+n2: dv(n2, n4, n6, 22)
-n0: dv(n0, n0, n1, 11)
-n0: dv(n0, n3, n1, 11)
-n0: dv(n0, n7, n1, 6)
-n1: dv(n1, n3, n2, 17)
-n2: dv(n2, n0, n3, 22)
-n2: dv(n2, n7, n3, 17)
`,
	}
	cutScript(t, Config{Source: DistanceVector}, 4, only("dv", "dvCost"), func(m moment) {
		if got := diffRows(m.live, m.fresh); got != want[m.step] {
			t.Errorf("step %d %s: cut run against a fresh run\n--- got ---\n%s--- want ---\n%s", m.step, m.what, got, want[m.step])
		}
	})
}

// TestPathVectorCutDivergence is item 11's second witness: PathVector
// under the cut script (AuthNone) on the two graphs where it does not
// re-converge, pinned per step like TestDistanceVectorCutDivergence. On
// seed 7, cutting n2→n3 leaves n2 a route costing 13 where a fresh run
// has 15; on seed 8, cutting n0→n1 leaves n0 and n7 routes to n2
// cheaper than a fresh run's. A rising route cost arrives as a
// primary-key replacement, which retracts nothing. Item 11 empties both
// and moves the seeds into TestCutMatchesFreshAcrossPrograms.
func TestPathVectorCutDivergence(t *testing.T) {
	// Each seed's diff stays the same from the cut that makes it until
	// the restore that takes it away.
	seed7 := `
+n2: rCost(n2, n4, 13)
+n2: bestRoute(n2, n4, 13)
-n2: rCost(n2, n4, 15)
-n2: bestRoute(n2, n4, 15)
`
	seed8 := `
+n0: rCost(n0, n2, 9)
+n0: bestRoute(n0, n2, 9)
+n7: rCost(n7, n2, 10)
+n7: bestRoute(n7, n2, 10)
-n0: rCost(n0, n2, 19)
-n0: bestRoute(n0, n2, 19)
-n7: rCost(n7, n2, 15)
-n7: bestRoute(n7, n2, 15)
`
	want := map[int64][]string{
		7: {"\n", "\n", seed7, seed7, seed7, "\n"},
		8: {seed8, seed8, seed8, seed8, "\n", "\n"},
	}
	for _, seed := range []int64{7, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cutScript(t, Config{Source: PathVector}, seed, routeCosts, func(m moment) {
				if got := diffRows(m.live, m.fresh); got != want[seed][m.step] {
					t.Errorf("step %d %s: cut run against a fresh run\n--- got ---\n%s--- want ---\n%s", m.step, m.what, got, want[seed][m.step])
				}
			})
		})
	}
}

// TestProvenanceMatchesFresh holds provenance after churn to a fresh
// run (ROADMAP item 22(a)). It plays the cut script under ModeCondensed
// on seeds 4–6 and, after every step, compares each fact's FactPoly with
// a fresh run's: reachable, and for Best-Path spCost and bestPath's
// (S,D,C). The diffs are pinned as they stand: for each program and seed
// where the cut run differs, testdata/provenance/<program>-seed<N>.txt
// lists, step by step, the facts and polynomials it has (+) and lacks
// (-) against the fresh run; a program and seed without a file match at
// every step. AuthRSA reads as AuthNone. Item 22(b) and (c) empty the
// files, which then go.
//
// ReachableNDlog differs on every seed until the last restore: a row
// that loses one derivation and keeps another keeps the lost one's term
// (after n0→n1 is cut on seed 4, n0 keeps reachable(n0, n1) <n0>).
// ReachableSeNDlog keeps one row per asserter and matches. Best-Path
// differs on seed 6 only: after n2→n3 is cut, spCost(n2, n7, 7) keeps
// the witness <n2*n3> where the fresh run has <n2*n6> at the same cost,
// and after the last restore bestPath(n2, n7, 7) still reads
// <n2*n3*n6>.
//
// The local and distributed subtests check the soundness of ModeLocal's
// shipped trees and of ModeDistributed's traceback on ReachableNDlog:
// every leaf of every derivation tree, but the cycles a traceback
// truncates, should be a link of the moment's graph. The trees that cite
// a cut link are counted and pinned per step, one table of counts per
// mode.
func TestProvenanceMatchesFresh(t *testing.T) {
	programs := []struct {
		name, source string
		shape        shape
	}{
		{"ReachableNDlog", ReachableNDlog, only("reachable")},
		{"ReachableSeNDlog", ReachableSeNDlog, only("reachable")},
		{"BestPath", BestPath, pathCosts},
	}
	for _, prog := range programs {
		for _, scheme := range []auth.Scheme{auth.SchemeNone, auth.SchemeRSA} {
			seeds := []int64{4, 5, 6}
			if scheme == auth.SchemeRSA {
				seeds = []int64{4, 6}
			}
			t.Run(fmt.Sprintf("%s/%s", prog.name, scheme), func(t *testing.T) {
				for _, seed := range seeds {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						want, err := os.ReadFile(fmt.Sprintf("testdata/provenance/%s-seed%d.txt", prog.name, seed))
						if err != nil && !errors.Is(err, fs.ErrNotExist) {
							t.Fatal(err)
						}
						var got strings.Builder
						cfg := Config{Source: prog.source, Auth: scheme, KeyBits: 512, Prov: provenance.ModeCondensed}
						polys := prog.shape
						polys.poly = true
						cutScript(t, cfg, seed, polys, func(m moment) {
							if len(m.live) == 0 {
								t.Fatalf("step %d: no rows to compare", m.step)
							}
							if diff := diffRows(m.live, m.fresh); diff != "\n" {
								fmt.Fprintf(&got, "step %d %s:%s", m.step, m.what, diff)
							}
						})
						if got.String() != string(want) {
							t.Errorf("provenance after the cuts against a fresh run's\n--- got ---\n%s--- want ---\n%s", got.String(), want)
						}
					})
				}
			})
		}
	}
	unsound := []struct {
		mode   provenance.Mode
		counts map[int64][]int
	}{
		{provenance.ModeLocal, map[int64][]int{
			4: {21, 29, 47, 46, 31, 0},
			5: {15, 44, 48, 32, 21, 0},
			6: {27, 35, 39, 32, 16, 0},
		}},
		{provenance.ModeDistributed, map[int64][]int{
			4: {12, 25, 35, 24, 12, 0},
			5: {25, 37, 48, 39, 14, 0},
			6: {30, 34, 47, 46, 17, 0},
		}},
	}
	for _, u := range unsound {
		t.Run("ReachableNDlog/"+u.mode.String(), func(t *testing.T) {
			for _, seed := range []int64{4, 5, 6} {
				var got []int
				cutScript(t, Config{Source: ReachableNDlog, Prov: u.mode}, seed, only("reachable"), func(m moment) {
					links := map[[2]string]bool{}
					for _, l := range m.in.graph().Links {
						links[[2]string{l.From, l.To}] = true
					}
					bad := 0
					for _, name := range m.n.Nodes() {
						for _, tu := range m.n.Tuples(name, "reachable") {
							tree, _, err := m.n.DerivationTree(name, tu, provenance.QueryOpts{})
							if err != nil {
								t.Fatal(err)
							}
							if citesCutLink(tree, links) {
								bad++
							}
						}
					}
					got = append(got, bad)
				})
				if fmt.Sprint(got) != fmt.Sprint(u.counts[seed]) {
					t.Errorf("seed %d: trees citing a cut link, per step: %v, want %v", seed, got, u.counts[seed])
				}
			}
		})
	}
}

// citesCutLink reports whether a leaf of tr is anything but a link of
// links. A truncated leaf is where a traceback cut a cycle, not a base
// tuple, so it cites nothing.
func citesCutLink(tr *provenance.Tree, links map[[2]string]bool) bool {
	if len(tr.Derivs) == 0 {
		l := tr.Tuple
		return !tr.Truncated && (l.Pred != "link" || !links[[2]string{l.Args[0].Str, l.Args[1].Str}])
	}
	for _, d := range tr.Derivs {
		for _, c := range d.Children {
			if citesCutLink(c, links) {
				return true
			}
		}
	}
	return false
}

// TestCutLinkReconverges is the tentpole acceptance test: after CutLink,
// every stale bestPath (one routed over the cut edge) is withdrawn on
// every node, the re-converged bestPath/spCost tables equal a fresh
// network built without the link, and the incremental re-convergence
// costs measurably fewer rounds and bytes than that restart.
func TestCutLinkReconverges(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 9})
	cfg := Config{Source: BestPath, Graph: g, Auth: auth.SchemeRSA, KeyBits: 512} // the restart's key size
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx := context.Background()
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	cut := cutCandidate(t, n, g)
	before := n.Transport().Stats()

	if err := d.CutLink(cut.From, cut.To); err != nil {
		t.Fatal(err)
	}
	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after := n.Transport().Stats()
	liveRounds, liveBytes := rep.Rounds, after.Bytes-before.Bytes
	if rep.Retracted == 0 {
		t.Fatal("no tuples retracted by the cut")
	}

	// No surviving bestPath routes over the cut edge, on any node.
	for _, name := range n.Nodes() {
		for _, bp := range n.Tuples(name, "bestPath") {
			if pathUsesEdge(bp.Args[2], cut.From, cut.To) {
				t.Fatalf("stale best path survived at %s: %s (cut %s->%s)", name, bp, cut.From, cut.To)
			}
		}
	}

	// The re-converged routing state equals a restart on the cut topology.
	cfg.Graph = without(g, cut)
	nRest, repRest := mustRun(t, cfg)
	if a, b := render(n, only("bestPath", "spCost")), render(nRest, only("bestPath", "spCost")); a != b {
		t.Fatalf("re-converged tables differ from restart\n--- live ---\n%s--- restart ---\n%s", a, b)
	}

	// Incremental re-convergence beats the restart on both axes.
	restBytes := nRest.Transport().Stats().Bytes
	if liveBytes >= restBytes {
		t.Errorf("re-convergence bytes %d not below restart bytes %d", liveBytes, restBytes)
	}
	if liveRounds >= repRest.Rounds {
		t.Errorf("re-convergence rounds %d not below restart rounds %d", liveRounds, repRest.Rounds)
	}
	t.Logf("cut %s->%s: live %d rounds / %d bytes vs restart %d rounds / %d bytes",
		cut.From, cut.To, liveRounds, liveBytes, repRest.Rounds, restBytes)
}

// TestCutLinkAcrossTransports runs the cut-reconverge-equals-restart
// check under the session transport, where retract frames carry session
// MACs instead of signatures, and under the sequential per-tuple
// baseline.
func TestCutLinkAcrossTransports(t *testing.T) {
	for _, s := range []struct {
		name string
		mut  func(*Config)
	}{
		{"session", func(c *Config) { c.Auth = auth.SchemeSession }},
		{"sequential-unbatched", func(c *Config) { c.Sequential = true; c.Unbatched = true }},
	} {
		t.Run(s.name, func(t *testing.T) {
			g := topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, MaxCost: 10, Seed: 4})
			cfg := Config{Source: BestPath, Graph: g, Auth: auth.SchemeRSA}
			s.mut(&cfg)
			n, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := n.Driver()
			ctx := context.Background()
			if _, err := d.AwaitQuiescence(ctx); err != nil {
				t.Fatal(err)
			}
			cut := cutCandidate(t, n, g)
			if err := d.CutLink(cut.From, cut.To); err != nil {
				t.Fatal(err)
			}
			if _, err := d.AwaitQuiescence(ctx); err != nil {
				t.Fatal(err)
			}
			cfg.Graph = without(g, cut)
			nRest, _ := mustRun(t, cfg)
			if a, b := render(n, only("bestPath", "spCost")), render(nRest, only("bestPath", "spCost")); a != b {
				t.Fatalf("re-converged tables differ from restart\n--- live ---\n%s--- restart ---\n%s", a, b)
			}
		})
	}
}

// TestSetLinkHandlesCostIncrease pins the semantics batch churn could not
// express: raising a link's cost retracts the old fact first, so best
// paths priced on the cheaper link are withdrawn and re-priced.
func TestSetLinkHandlesCostIncrease(t *testing.T) {
	g := topo.Custom([]topo.Link{
		{From: "a", To: "b", Cost: 1},
		{From: "b", To: "c", Cost: 1},
		{From: "a", To: "c", Cost: 10},
	})
	n, err := NewNetwork(Config{Source: BestPath, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx := context.Background()
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	want := data.NewTuple("bestPath", data.Str("a"), data.Str("c"),
		data.Strings("a", "b", "c"), data.Int(2))
	foundInitial := false
	for _, tu := range n.Tuples("a", "bestPath") {
		if tu.WithoutAsserter().Equal(want) {
			foundInitial = true
		}
	}
	if !foundInitial {
		t.Fatalf("initial bestPath = %v, want %s", n.Tuples("a", "bestPath"), want)
	}

	// Raising a→b to 20 makes the direct a→c (10) the best path.
	if err := d.SetLink("a", "b", 20); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	want = data.NewTuple("bestPath", data.Str("a"), data.Str("c"),
		data.Strings("a", "c"), data.Int(10))
	found := false
	for _, tu := range n.Tuples("a", "bestPath") {
		if tu.WithoutAsserter().Equal(want) {
			found = true
		}
		if tu.Args[1].Str == "c" && tu.Args[3].Int == 2 {
			t.Fatalf("stale 2-cost best path survived the cost increase: %s", tu)
		}
	}
	if !found {
		t.Fatalf("bestPath after increase = %v, want %s", n.Tuples("a", "bestPath"), want)
	}
}

// TestRunReportsCappedRounds is the regression test for the Rounds
// overcount: a run capped by maxRounds must report exactly maxRounds, not
// maxRounds+1, alongside ErrNoFixpoint.
func TestRunReportsCappedRounds(t *testing.T) {
	cfg := Config{Source: BestPath, Graph: topo.Line(5), Auth: auth.SchemeNone}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run(2)
	if !errors.Is(err, ErrNoFixpoint) {
		t.Fatalf("err = %v, want ErrNoFixpoint", err)
	}
	if rep.Rounds != 2 {
		t.Fatalf("Rounds = %d, want exactly the cap 2", rep.Rounds)
	}
}

// TestContextCancellation checks that every blocking entry point honors
// cancellation: a cancelled context aborts Step/AwaitQuiescence mid-round
// with the context's error, and the network is not corrupted — a fresh
// context resumes it to the correct fixpoint.
func TestContextCancellation(t *testing.T) {
	cfg := bestPathCfg()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Step(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := d.AwaitQuiescence(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("AwaitQuiescence with cancelled ctx: err = %v, want context.Canceled", err)
	}
	deadline, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := d.AwaitQuiescence(deadline); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}

	// Cancellation is not fatal: the run resumes and converges correctly.
	if _, err := d.AwaitQuiescence(context.Background()); err != nil {
		t.Fatal(err)
	}
	nRef, _ := mustRun(t, cfg)
	if a, b := render(n, shape{}), render(nRef, shape{}); a != b {
		t.Fatalf("tables after cancel+resume differ from a clean run\n--- resumed ---\n%s--- clean ---\n%s", a, b)
	}
}

// TestStartContextDeathIsSticky pins the pump's failure mode: when the
// context given to Start dies, the driver must not keep accepting work
// it will never process, and waiters must not mistake the un-converged
// state for quiescence — every entry point reports the context error.
func TestStartContextDeathIsSticky(t *testing.T) {
	n, err := NewNetwork(bestPathCfg())
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx, cancel := context.WithCancel(context.Background())
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The pump exits on its own; subsequent operations — even with a
	// healthy context — must surface the death instead of hanging or
	// reporting phantom quiescence.
	deadline := time.After(5 * time.Second)
	for {
		err := d.Inject("n0", data.NewTuple("link", data.Str("n0"), data.Str("n1"), data.Int(1)))
		if errors.Is(err, context.Canceled) {
			break
		}
		if err != nil {
			t.Fatalf("Inject after pump death: %v", err)
		}
		select {
		case <-deadline:
			t.Fatal("pump death never became sticky")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := d.AwaitQuiescence(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("AwaitQuiescence after pump death: err = %v, want context.Canceled", err)
	}
	d.Close()
}

// TestSubscribeStreamsUpdates checks the subscription surface: bestPath
// updates stream on a live driver, withdrawals arrive as Added=false
// after a cut, and Close terminates the channel.
func TestSubscribeStreamsUpdates(t *testing.T) {
	g := topo.Custom([]topo.Link{
		{From: "a", To: "b", Cost: 1},
		{From: "b", To: "c", Cost: 1},
	})
	n, err := NewNetwork(Config{Source: BestPath, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	sub, err := d.Subscribe("a", "bestPath")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	var adds int
	for len(sub.Updates()) > 0 {
		u := <-sub.Updates()
		if u.Node != "a" || u.Tuple.Pred != "bestPath" {
			t.Fatalf("filter leak: %+v", u)
		}
		if u.Added {
			adds++
		}
	}
	if adds == 0 {
		t.Fatal("no bestPath additions streamed during convergence")
	}

	if err := d.CutLink("b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	sawWithdraw := false
	for len(sub.Updates()) > 0 {
		if u := <-sub.Updates(); !u.Added && u.Tuple.Args[1].Str == "c" {
			sawWithdraw = true
		}
	}
	if !sawWithdraw {
		t.Fatal("cut link produced no bestPath withdrawal update")
	}
	sub.Close()
	if _, ok := <-sub.Updates(); ok {
		t.Fatal("channel still open after Close")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscriptionCap pins the bound on live subscriptions: at
// maxSubscriptions the next Subscribe fails, closing one frees a slot,
// racing subscribers never push Subscribers past the cap, and the
// provnet_driver_subscribers gauge reads the count at quiescence.
func TestSubscriptionCap(t *testing.T) {
	m := obs.New()
	n, err := NewNetwork(Config{Source: BestPath, Graph: topo.Line(2), Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	subs := make([]*Subscription, 0, maxSubscriptions)
	for len(subs) < maxSubscriptions {
		sub, err := d.Subscribe("", "")
		if err != nil {
			t.Fatalf("subscription %d: %v", len(subs)+1, err)
		}
		subs = append(subs, sub)
	}
	if _, err := d.Subscribe("n0", "bestPath"); !errors.Is(err, ErrTooManySubscriptions) {
		t.Fatalf("Subscribe past the cap: err = %v, want ErrTooManySubscriptions", err)
	}
	if _, err := d.AwaitQuiescence(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := m.Gauge("provnet_driver_subscribers", "").Value(); got != maxSubscriptions {
		t.Fatalf("provnet_driver_subscribers = %d, want %d", got, maxSubscriptions)
	}
	subs[0].Close()
	subs = subs[1:]
	sub, err := d.Subscribe("n0", "bestPath")
	if err != nil {
		t.Fatalf("a closed subscription did not free its slot: %v", err)
	}
	subs = append(subs, sub)

	// Half the slots free, twice as many racing takers: the cap holds.
	for _, sub := range subs[:maxSubscriptions/2] {
		sub.Close()
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	taken, peak := 0, 0
	for i := 0; i < maxSubscriptions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := d.Subscribe("", "")
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				taken++
			} else if !errors.Is(err, ErrTooManySubscriptions) {
				t.Error(err)
			}
			peak = max(peak, d.Subscribers())
		}()
	}
	wg.Wait()
	if taken != maxSubscriptions/2 || peak > maxSubscriptions || d.Subscribers() != maxSubscriptions {
		t.Fatalf("%d racing subscribers took %d of %d free slots, peak %d, now %d (cap %d)",
			maxSubscriptions, taken, maxSubscriptions/2, peak, d.Subscribers(), maxSubscriptions)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDriverConcurrentInjectSubscribeStep drives Inject and Subscribe
// from racing goroutines while the main goroutine steps the scheduler —
// the -race coverage the lifecycle API promises.
func TestDriverConcurrentInjectSubscribeStep(t *testing.T) {
	g := topo.Custom([]topo.Link{
		{From: "a", To: "b", Cost: 1},
		{From: "b", To: "c", Cost: 1},
		{From: "c", To: "a", Cost: 1},
	})
	n, err := NewNetwork(Config{Source: BestPath, Graph: g, Auth: auth.SchemeSession})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 20; i++ {
			if err := d.Inject("a", data.NewTuple("link", data.Str("a"), data.Str("b"), data.Int(100+i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			sub, err := d.Subscribe("", "bestPath")
			if err != nil {
				t.Error(err)
				return
			}
			for len(sub.Updates()) > 0 {
				<-sub.Updates()
			}
			sub.Close()
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := d.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLiveTracebackSeesStaleProvenance runs a distributed-provenance
// network, cuts a link, and checks that (a) traceback queries work
// against the running driver and (b) the provenance of withdrawn tuples
// is marked stale rather than erased.
func TestLiveTracebackSeesStaleProvenance(t *testing.T) {
	g := topo.Custom([]topo.Link{
		{From: "a", To: "b", Cost: 1},
		{From: "b", To: "c", Cost: 1},
	})
	off := -1.0
	n, err := NewNetwork(Config{Source: BestPath, Graph: g, Prov: provenance.ModeDistributed, Offline: &off})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	var target data.Tuple
	for _, tu := range n.Tuples("a", "bestPath") {
		if tu.Args[1].Str == "c" {
			target = tu
		}
	}
	if target.Pred == "" {
		t.Fatal("no bestPath(a,c) installed")
	}
	// Traceback against the live driver (stores are concurrency-safe).
	if _, _, err := n.DerivationTree("a", target, provenance.QueryOpts{}); err != nil {
		t.Fatalf("live traceback: %v", err)
	}

	if err := d.CutLink("b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	if n.Node("a").Engine.Has(target) {
		t.Fatal("bestPath(a,c) should be withdrawn after the cut")
	}
	entry, ok := n.Node("a").Store.GetAny(provenance.KeyOf(target))
	if !ok {
		t.Fatal("withdrawn tuple's provenance erased; want stale-marked history")
	}
	if !entry.Stale {
		t.Fatal("withdrawn tuple's provenance not marked stale")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
