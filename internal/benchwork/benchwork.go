// Package benchwork defines the benchmark workloads shared by the
// pinned tests and the Benchmark* harnesses — one definition each, so
// a benchmark measures exactly what a test pins. Its own test binary
// also holds the hot-path allocation budget (budget_test.go).
//
// Two churn workloads coexist. BestPathChurn is the PR-2 workload:
// batch-style refresh cycles (keyed link-fact replacement, then a full
// Run to the new fixpoint) — the restart-shaped dynamism the lifecycle
// API replaces. LiveCutLink and LiveBestPathChurn drive the same
// Best-Path computation through the live driver: SetLink/CutLink feed
// deltas into the running engines and the network re-converges
// incrementally, which LiveCutLink compares against a full restart.
package benchwork

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"provnet"
	"provnet/internal/data"
)

// DefaultCycles is the number of route-refresh cycles after initial
// convergence: the long-lived-link regime the session handshake
// amortizes over.
const DefaultCycles = 8

// Mode is one cell of the transport benchmark matrix.
type Mode struct {
	Name string
	Mut  func(*provnet.Config)
}

// Modes returns the matrix: the paper's per-tuple RSA, one RSA signature
// per node per round over a hash tree of its frames, and the session
// transport.
func Modes() []Mode {
	return []Mode{
		{"rsa-per-tuple", func(c *provnet.Config) { c.Unbatched = true }},
		{"rsa-per-round", func(c *provnet.Config) {}},
		{"session-mac", func(c *provnet.Config) { c.Auth = provnet.AuthSession }},
	}
}

// BestPathChurn runs the §6 Best-Path workload under churn: initial
// convergence on a random topology, then cycles refresh rounds in which
// every link cost improves below its previous value — the baseline costs
// are pre-inflated by (cycles+1) so each refresh beats the installed
// minimum and repropagates through the aggSelection(min), forcing a full
// re-convergence per cycle. The returned report carries the run's
// cumulative transport and crypto counters. fatal is called on any
// error (testing.T.Fatal / testing.B.Fatal compatible).
func BestPathChurn(fatal func(...any), cfg provnet.Config, nodes, cycles, keyBits int, seed int64) *provnet.Report {
	return BestPathChurnStaged(fatal, cfg, nodes, cycles, keyBits, seed)()
}

// BestPathChurnStaged splits BestPathChurn into setup and measurement:
// it builds the network (principal key generation) and runs the initial
// convergence, then returns a one-shot closure that drives the refresh
// cycles — the steady-state churn window the allocation budget counts.
// The closure is one-shot because each cycle's costs undercut the
// previous fixpoint's.
func BestPathChurnStaged(fatal func(...any), cfg provnet.Config, nodes, cycles, keyBits int, seed int64) func() *provnet.Report {
	g := provnet.RandomGraph(provnet.TopoOptions{N: nodes, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
	scale := int64(cycles + 1)
	for i := range g.Links {
		g.Links[i].Cost *= scale
	}
	cfg.Graph = g
	cfg.Seed = seed
	cfg.KeyBits = keyBits
	net, err := provnet.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	rep, err := net.Run(0)
	if err != nil {
		fatal(err)
	}
	d := net.Driver()
	return func() *provnet.Report {
		for cycle := 1; cycle <= cycles; cycle++ {
			for _, l := range g.Links {
				cost := l.Cost / scale * int64(cycles+1-cycle)
				tu := provnet.NewTuple("link", provnet.Str(l.From), provnet.Str(l.To), provnet.Int(cost))
				if err := d.Inject(l.From, tu); err != nil {
					fatal(err)
				}
			}
			if rep, err = net.Run(0); err != nil {
				fatal(err)
			}
		}
		return rep
	}
}

// BestPathBatchStaged builds the §6 Best-Path workload on a random
// topology of nodes nodes (out-degree 3) and returns a one-shot closure
// that runs it to the distributed fixpoint: the Figure 3 query, with
// network construction outside the window.
func BestPathBatchStaged(fatal func(...any), cfg provnet.Config, nodes int, seed int64) func() *provnet.Report {
	cfg.Graph = provnet.RandomGraph(provnet.TopoOptions{N: nodes, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
	cfg.Seed = seed
	net, err := provnet.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	return func() *provnet.Report {
		rep, err := net.Run(0)
		if err != nil {
			fatal(err)
		}
		return rep
	}
}

// LiveBestPathChurn is the live-driver equivalent of BestPathChurn: the
// same topology and refresh schedule, but every cost change goes through
// Driver.SetLink against the started network — retract-then-insert
// deltas absorbed incrementally instead of refresh-and-rerun. It returns
// the final cumulative report.
func LiveBestPathChurn(fatal func(...any), cfg provnet.Config, nodes, cycles, keyBits int, seed int64) *provnet.Report {
	g := provnet.RandomGraph(provnet.TopoOptions{N: nodes, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
	scale := int64(cycles + 1)
	for i := range g.Links {
		g.Links[i].Cost *= scale
	}
	cfg.Graph = g
	cfg.Seed = seed
	cfg.KeyBits = keyBits
	net, err := provnet.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	d := net.Driver()
	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		fatal(err)
	}
	for cycle := 1; cycle <= cycles; cycle++ {
		for _, l := range g.Links {
			cost := l.Cost / scale * int64(cycles+1-cycle)
			if err := d.SetLink(l.From, l.To, cost); err != nil {
				fatal(err)
			}
		}
		if rep, err = d.AwaitQuiescence(ctx); err != nil {
			fatal(err)
		}
	}
	return rep
}

// BestPathCutStaged converges the §6 Best-Path workload on a random
// topology through a synchronous Driver, then returns a one-shot closure
// that cuts and restores each of the first flaps links in turn, waiting
// for quiescence after every change: the retraction window (two-phase
// DRed, then re-insertion) the allocation budget counts. The closure's
// report holds the window's own work — derivations, tuples stored and
// retracted, and rounds summed over its quiescences — with the
// transport and crypto counters cumulative.
func BestPathCutStaged(fatal func(...any), cfg provnet.Config, nodes, flaps int, seed int64) func() *provnet.Report {
	g := provnet.RandomGraph(provnet.TopoOptions{N: nodes, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
	cfg.Graph = g
	cfg.Seed = seed
	net, err := provnet.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	d := net.Driver()
	base, err := d.AwaitQuiescence(ctx)
	if err != nil {
		fatal(err)
	}
	return func() *provnet.Report {
		rep, rounds := base, 0
		settle := func(err error) {
			if err == nil {
				rep, err = d.AwaitQuiescence(ctx)
			}
			if err != nil {
				fatal(err)
			}
			rounds += rep.Rounds
		}
		for _, l := range g.Links[:flaps] {
			settle(d.CutLink(l.From, l.To))
			settle(d.SetLink(l.From, l.To, l.Cost))
		}
		out := *rep
		out.Rounds = rounds
		out.Derivations -= base.Derivations
		out.TuplesStored -= base.TuplesStored
		out.Retracted -= base.Retracted
		return &out
	}
}

// fanInSource is the wide fan-in workload: spoke nodes ship edge
// readings to a single hub, which computes the two-hop join and a
// per-source fan-out count. Nearly all work is the hub's rule
// evaluation — one huge delta wave self-joined against itself — so the
// transport layer is negligible, unlike the Best-Path workloads where
// per-round crypto and inter-node scheduling dominate.
const fanInSource = `
materialize(item, infinity, infinity, keys(1,2,3,4)).
materialize(feed, infinity, infinity, keys(1,2,3)).
materialize(two, infinity, infinity, keys(1,2,3)).
materialize(fan, infinity, infinity, keys(1,2)).
f1 feed(@H, X, Y) :- item(@S, H, X, Y).
j1 two(@H, X, Z) :- feed(@H, X, Y), feed(@H, Y, Z).
c1 fan(@H, X, count<*>) :- two(@H, X, Z).
`

// fanInHub is the hub node name of the fan-in workload.
const fanInHub = "hub"

// FanInStaged sets up the wide fan-in workload — a random directed edge
// set over vertices vertices (out-degree degree), spread as item facts
// across spokes source nodes, all feeding the hub's two-hop join — and
// returns a one-shot closure that runs it to the distributed fixpoint:
// the evaluation window the allocation budget counts, free of topology
// construction and principal key generation.
func FanInStaged(fatal func(...any), cfg provnet.Config, spokes, vertices, degree int, seed int64) func() *provnet.Report {
	cfg.Source = fanInSource
	cfg.Seed = seed
	cfg.ExtraNodes = append([]string{fanInHub}, spokeNames(spokes)...)
	net, err := provnet.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	names := cfg.ExtraNodes[1:]
	i := 0
	for x := 0; x < vertices; x++ {
		for d := 0; d < degree; d++ {
			y := rng.Intn(vertices - 1)
			if y >= x {
				y++
			}
			spoke := names[i%len(names)]
			i++
			tu := provnet.NewTuple("item",
				provnet.Str(spoke), provnet.Str(fanInHub),
				provnet.Str(fmt.Sprintf("v%d", x)), provnet.Str(fmt.Sprintf("v%d", y)))
			// Straight into the engine: a queued Inject would be applied
			// inside the measured window.
			net.Node(spoke).Engine.InsertFact(tu)
		}
	}
	return func() *provnet.Report {
		rep, err := net.Run(0)
		if err != nil {
			fatal(err)
		}
		return rep
	}
}

func spokeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%d", i)
	}
	return out
}

// CutLinkResult compares one live CutLink re-convergence against a full
// restart on the cut topology.
type CutLinkResult struct {
	// Cut is the removed link (one that carried installed best paths).
	CutFrom, CutTo string
	// LiveRounds/LiveBytes are the incremental re-convergence costs;
	// Retracted counts the tuples withdrawn across all nodes.
	LiveRounds int
	LiveBytes  int64
	Retracted  int64
	// RestartRounds/RestartBytes are the full re-run costs on a fresh
	// network built without the link.
	RestartRounds int
	RestartBytes  int64
}

// pathUsesEdge reports whether a bestPath path-list routes over from→to.
func pathUsesEdge(v provnet.Value, from, to string) bool {
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

// LiveCutLink converges the §6 Best-Path workload, cuts the first link
// that an installed best path routes over, measures the incremental
// re-convergence, and runs the restart baseline on the cut topology.
func LiveCutLink(fatal func(...any), cfg provnet.Config, nodes, keyBits int, seed int64) CutLinkResult {
	g := provnet.RandomGraph(provnet.TopoOptions{N: nodes, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
	base := cfg
	base.Graph = g
	base.Seed = seed
	base.KeyBits = keyBits
	net, err := provnet.NewNetwork(base)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	d := net.Driver()
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		fatal(err)
	}

	// Cut the median-loaded link among those carrying installed best
	// paths: a representative failure, not the best or worst case.
	type loaded struct {
		link provnet.GraphLink
		uses int
	}
	var candidates []loaded
	for _, l := range g.Links {
		uses := 0
		for _, name := range net.Nodes() {
			for _, bp := range net.Tuples(name, "bestPath") {
				if pathUsesEdge(bp.Args[2], l.From, l.To) {
					uses++
				}
			}
		}
		if uses > 0 {
			candidates = append(candidates, loaded{link: l, uses: uses})
		}
	}
	if len(candidates) == 0 {
		fatal("no link participates in any best path")
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].uses != candidates[j].uses {
			return candidates[i].uses < candidates[j].uses
		}
		if candidates[i].link.From != candidates[j].link.From {
			return candidates[i].link.From < candidates[j].link.From
		}
		return candidates[i].link.To < candidates[j].link.To
	})
	cut := candidates[len(candidates)/2].link

	before := net.Transport().Stats()
	if err := d.CutLink(cut.From, cut.To); err != nil {
		fatal(err)
	}
	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		fatal(err)
	}
	after := net.Transport().Stats()

	rest := &provnet.Graph{Nodes: g.Nodes}
	for _, l := range g.Links {
		if l != cut {
			rest.Links = append(rest.Links, l)
		}
	}
	restCfg := cfg
	restCfg.Graph = rest
	restCfg.Seed = seed
	restCfg.KeyBits = keyBits
	netRest, err := provnet.NewNetwork(restCfg)
	if err != nil {
		fatal(err)
	}
	repRest, err := netRest.Run(0)
	if err != nil {
		fatal(err)
	}
	return CutLinkResult{
		CutFrom:       cut.From,
		CutTo:         cut.To,
		LiveRounds:    rep.Rounds,
		LiveBytes:     after.Bytes - before.Bytes,
		Retracted:     rep.Retracted,
		RestartRounds: repRest.Rounds,
		RestartBytes:  netRest.Transport().Stats().Bytes,
	}
}
