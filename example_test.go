package provnet_test

// The examples below state the paper's claims (§2–§6) and go test checks
// what each one prints. Every count in their output is exact: the
// in-memory transport drains in a deterministic order, keys derive from
// the seed, and no line prints wall time or map order.

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"provnet"
	"provnet/internal/bdd"
)

// paperGraph is the running example's 3-node network: links (a,b),
// (a,c), (b,c).
func paperGraph() *provnet.Graph {
	return provnet.CustomGraph([]provnet.GraphLink{
		{From: "a", To: "b", Cost: 1},
		{From: "a", To: "c", Cost: 1},
		{From: "b", To: "c", Cost: 1},
	})
}

// Example_quickstart reproduces the paper's running example (§2, §4):
// the reachable query in NDlog with local (tree) provenance and the
// Figure 1 derivation tree of reachable(a,c), then in SeNDlog with
// RSA-authenticated communication and condensed provenance, the Figure 2
// annotations, and the §4.4 condensation of <a + a*b> to <a>.
func Example_quickstart() {
	fmt.Println("== Provenance-aware Secure Networks: quickstart ==")
	fmt.Println("Topology: link(a,b), link(a,c), link(b,c)")

	n, err := provnet.NewNetwork(provnet.Config{
		Source: provnet.ReachableNDlog,
		Graph:  paperGraph(),
		Prov:   provnet.ProvLocal,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := n.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- NDlog run: %d messages, %d bytes --\n", rep.Messages, rep.Bytes)
	for _, node := range n.Nodes() {
		for _, tu := range n.Tuples(node, "reachable") {
			fmt.Printf("  %s holds %s\n", node, tu)
		}
	}
	target := provnet.NewTuple("reachable", provnet.Str("a"), provnet.Str("c"))
	tree, _, err := n.DerivationTree("a", target, provnet.ProvQueryOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure 1 — derivation tree for reachable(a,c):")
	fmt.Print(tree.Render(nil))
	fmt.Println("base tuples at the leaves:")
	for _, l := range tree.Leaves() {
		fmt.Printf("  %s\n", l)
	}

	prog, err := provnet.ParseProgram(provnet.ReachableSeNDlog)
	if err != nil {
		log.Fatal(err)
	}
	var rules []string
	for _, r := range prog.Rules {
		rules = append(rules, r.Label)
	}
	n, err = provnet.NewNetwork(provnet.Config{
		Source:  provnet.ReachableSeNDlog,
		Graph:   paperGraph(),
		Auth:    provnet.AuthRSA,
		KeyBits: 1024, // the paper's 2008 setup
		Prov:    provnet.ProvCondensed,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err = n.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- SeNDlog run (rules %s): %d messages, %d bytes, %d signatures --\n",
		strings.Join(rules, ", "), rep.Messages, rep.Bytes, rep.Signed)
	fmt.Println("\nFigure 2 — condensed provenance annotations at node a:")
	for _, tu := range n.Tuples("a", "reachable") {
		fmt.Printf("  %-32s %s\n", tu, n.CondensedExpr("a", tu))
	}

	// Unioning both assertions of reachable(a,c) gives a + a*b, which the
	// BDD condenses to a.
	poly := n.FactPoly("a", target)
	m := bdd.New()
	fmt.Printf("\nprovenance of reachable(a,c): <%s>, condensed <%s>\n", poly, m.Expr(poly.ToBDD(m)))
	gate := provnet.NewTrustGate(provnet.MinLevelPolicy{Threshold: 2},
		provnet.TrustLevelMap(map[string]int64{"a": 2, "b": 1}), 8)
	d := gate.Consider("reachable(a,c)", poly)
	fmt.Printf("quantifiable trust (level(a)=2, level(b)=1): %d — max(2, min(2,1)) as in §4.5\n", d.Trust)
	fmt.Printf("trust decision at threshold 2: accept=%v (%s)\n", d.Accept, d.Reason)

	// Output:
	// == Provenance-aware Secure Networks: quickstart ==
	// Topology: link(a,b), link(a,c), link(b,c)
	//
	// -- NDlog run: 4 messages, 532 bytes --
	//   a holds reachable(a, b)
	//   a holds reachable(a, c)
	//   b holds reachable(b, c)
	//
	// Figure 1 — derivation tree for reachable(a,c):
	// reachable(a, c)
	// └─ union
	//    ├─ r1 @a
	//    │  └─ link(a, c)
	//    └─ r2 @b
	//       ├─ reachable_r2_tmp1(b, a, b)
	//       │  └─ r2_l1 @a
	//       │     └─ link(a, b)
	//       └─ reachable(b, c)
	//          └─ r1 @b
	//             └─ link(b, c)
	// base tuples at the leaves:
	//   link(a, b)
	//   link(a, c)
	//   link(b, c)
	//
	// -- SeNDlog run (rules s1, s2, s3): 4 messages, 823 bytes, 3 signatures --
	//
	// Figure 2 — condensed provenance annotations at node a:
	//   a says reachable(a, b)           <a>
	//   a says reachable(a, c)           <a>
	//   b says reachable(a, c)           <a*b>
	//
	// provenance of reachable(a,c): <a + a*b>, condensed <a>
	// quantifiable trust (level(a)=2, level(b)=1): 2 — max(2, min(2,1)) as in §4.5
	// trust decision at threshold 2: accept=true (trust 2 >= 2)
}

// Example_bestpath runs the paper's §6 evaluation workload — the
// all-pairs Best-Path recursive query — on a random graph with average
// out-degree 3, in the SeNDlogProv configuration (RSA-signed rounds plus
// condensed BDD provenance), shows per-route provenance annotations, and
// checks every route cost against Dijkstra.
func Example_bestpath() {
	g := provnet.RandomGraph(provnet.TopoOptions{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 1})
	fmt.Printf("== Best-Path on %d nodes, %d links (avg out-degree %.1f) ==\n",
		len(g.Nodes), len(g.Links), g.AvgOutDegree())

	cfg := provnet.VariantConfig(provnet.VariantSeNDlogProv, provnet.BestPath)
	cfg.Graph = g
	cfg.Seed = 1
	cfg.KeyBits = 1024 // the paper's 2008 setup
	n, err := provnet.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := n.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed fixpoint in %d rounds\n", rep.Rounds)
	fmt.Printf("traffic: %d messages, %.2f KB; signatures: %d signed / %d verified\n",
		rep.Messages, float64(rep.Bytes)/1024, rep.Signed, rep.Verified)

	src := g.Nodes[0]
	fmt.Printf("\nbest paths from %s (with condensed provenance over origin nodes):\n", src)
	for _, bp := range n.Tuples(src, "bestPath") {
		fmt.Printf("  -> %-4s cost %-3v via %-28s %s\n",
			bp.Args[1].Str, bp.Args[3], bp.Args[2], n.CondensedExpr(src, bp))
	}

	oracle := g.Dijkstra(src)
	ok := true
	for _, bp := range n.Tuples(src, "bestPath") {
		if oracle[bp.Args[1].Str] != bp.Args[3].AsInt() {
			ok = false
			fmt.Printf("MISMATCH %s: engine %v, dijkstra %d\n", bp.Args[1].Str, bp.Args[3], oracle[bp.Args[1].Str])
		}
	}
	if ok {
		fmt.Println("\nall route costs match the Dijkstra oracle")
	}

	// Output:
	// == Best-Path on 12 nodes, 36 links (avg out-degree 3.0) ==
	// distributed fixpoint in 7 rounds
	// traffic: 163 messages, 58.45 KB; signatures: 57 signed / 163 verified
	//
	// best paths from n0 (with condensed provenance over origin nodes):
	//   -> n1   cost 1   via [n0,n1]                      <n0>
	//   -> n10  cost 8   via [n0,n1,n2,n3,n10]            <n0*n1*n2*n3>
	//   -> n11  cost 4   via [n0,n1,n5,n11]               <n0*n1*n5>
	//   -> n2   cost 3   via [n0,n1,n2]                   <n0*n1>
	//   -> n3   cost 5   via [n0,n1,n2,n3]                <n0*n1*n2>
	//   -> n4   cost 7   via [n0,n1,n2,n3,n4]             <n0*n1*n2*n3>
	//   -> n5   cost 2   via [n0,n1,n5]                   <n0*n1>
	//   -> n6   cost 3   via [n0,n1,n5,n6]                <n0*n1*n5>
	//   -> n7   cost 5   via [n0,n7]                      <n0>
	//   -> n8   cost 14  via [n0,n7,n8]                   <n0*n7>
	//   -> n9   cost 4   via [n0,n1,n9]                   <n0*n1>
	//
	// all route costs match the Dijkstra oracle
}

// Example_forensics is the paper's forensics use case (§3, §4.2): a
// worm spreads through the network as soft-state tuples; after the
// attack state has long expired, the victim reconstructs the infection
// path from offline distributed provenance, in full and as a seeded
// random moonwalk (§5).
func Example_forensics() {
	// The worm propagates along connections; infections are soft state
	// with a 30-second lifetime.
	const wormProgram = `
materialize(conn, infinity, infinity, keys(1,2)).
materialize(infected, 30, infinity, keys(1,2)).

w1 infected(@D,W) :- infected(@S,W), conn(@S,D).
`
	// patient0 -> r1 -> r2 -> victim, with a clean side branch.
	g := provnet.CustomGraph([]provnet.GraphLink{
		{From: "patient0", To: "r1", Cost: 1},
		{From: "r1", To: "r2", Cost: 1},
		{From: "r2", To: "victim", Cost: 1},
		{From: "clean", To: "r2", Cost: 1},
	})
	offline := -1.0 // keep forensic provenance forever
	n, err := provnet.NewNetwork(provnet.Config{
		Source:  wormProgram,
		Prov:    provnet.ProvDistributed,
		Offline: &offline,
		Graph:   g,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Topology facts use pred "link"; the program wants "conn".
	d := n.Driver()
	for _, l := range g.Links {
		if err := d.Inject(l.From, provnet.NewTuple("conn", provnet.Str(l.From), provnet.Str(l.To))); err != nil {
			log.Fatal(err)
		}
	}
	if err := d.Inject("patient0", provnet.NewTuple("infected", provnet.Str("patient0"), provnet.Str("slammer"))); err != nil {
		log.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Forensic traceback over offline provenance ==")
	fmt.Println("\nphase 1 — the worm spreads (soft state, TTL 30s):")
	for _, node := range n.Nodes() {
		for _, tu := range n.Tuples(node, "infected") {
			fmt.Printf("  %s: %s\n", node, tu)
		}
	}

	fmt.Println("\nphase 2 — 60 seconds pass; all infection state expires:")
	if err := d.Advance(60); err != nil {
		log.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		log.Fatal(err)
	}
	live := 0
	for _, node := range n.Nodes() {
		live += len(n.Tuples(node, "infected"))
	}
	fmt.Printf("  live infected tuples anywhere: %d\n", live)

	// Online provenance is gone with the tuples; the offline store still
	// answers.
	fmt.Println("\nphase 3 — offline distributed traceback from the victim:")
	victim := provnet.NewTuple("infected", provnet.Str("victim"), provnet.Str("slammer"))
	tree, stats, err := n.DerivationTree("victim", victim, provnet.ProvQueryOpts{Offline: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tree.Render(nil))
	fmt.Printf("query cost: %d inter-node messages, %d nodes visited, %d entries read\n",
		stats.Messages, stats.NodesVisited, stats.Entries)
	fmt.Println("\nroot causes (base tuples):")
	for _, l := range tree.Leaves() {
		fmt.Printf("  %s\n", l)
	}

	// A moonwalk samples one backward path instead of the whole tree;
	// seeded, the walks repeat exactly.
	fmt.Println("\nphase 4 — seeded random moonwalks over the same offline state:")
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 3; i++ {
		walk, wstats, err := n.DerivationTree("victim", victim, provnet.ProvQueryOpts{
			Offline: true, Moonwalk: true, Rng: rng,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  walk %d (%d hops, %d entries) ends at %s\n", i, wstats.Messages, wstats.Entries, walk.Leaves())
	}
	fmt.Println("\n→ patient0 is identified as the origin, from state that expired long ago.")

	// Output:
	// == Forensic traceback over offline provenance ==
	//
	// phase 1 — the worm spreads (soft state, TTL 30s):
	//   patient0: infected(patient0, slammer)
	//   r1: infected(r1, slammer)
	//   r2: infected(r2, slammer)
	//   victim: infected(victim, slammer)
	//
	// phase 2 — 60 seconds pass; all infection state expires:
	//   live infected tuples anywhere: 0
	//
	// phase 3 — offline distributed traceback from the victim:
	// infected(victim, slammer)
	// └─ @recv @victim
	//    └─ infected(victim, slammer)
	//       └─ w1 @r2
	//          ├─ infected(r2, slammer)
	//          │  └─ w1 @r1
	//          │     ├─ infected(r1, slammer)
	//          │     │  └─ w1 @patient0
	//          │     │     ├─ infected(patient0, slammer)
	//          │     │     └─ conn(patient0, r1)
	//          │     └─ conn(r1, r2)
	//          └─ conn(r2, victim)
	// query cost: 3 inter-node messages, 4 nodes visited, 8 entries read
	//
	// root causes (base tuples):
	//   conn(r1, r2)
	//   conn(r2, victim)
	//   conn(patient0, r1)
	//   infected(patient0, slammer)
	//
	// phase 4 — seeded random moonwalks over the same offline state:
	//   walk 1 (1 hops, 3 entries) ends at [conn(r2, victim)]
	//   walk 2 (3 hops, 5 entries) ends at [infected(patient0, slammer)]
	//   walk 3 (3 hops, 5 entries) ends at [conn(patient0, r1)]
	//
	// → patient0 is identified as the origin, from state that expired long ago.
}

// Example_accountability is the paper's accountability use case (§3):
// PlanetFlow-style auditing of the traffic services generate, as a
// continuous declarative query. Every transfer is a base tuple, per-user
// aggregates keep the call-detail records, a policy query flags users
// over quota, and the offline provenance store keeps the audit trail
// after the flow records themselves have aged out (§4.2).
func Example_accountability() {
	// Flow records are soft state (a 1-hour retention window, like
	// PlanetFlow's recent-traffic tables); usage aggregates and violation
	// findings are keyed tables that update in place.
	const auditProgram = `
materialize(flow, 3600, infinity, keys(1,2,3)).
materialize(usage, infinity, infinity, keys(1,2)).
materialize(quota, infinity, infinity, keys(1,2)).
materialize(violation, infinity, infinity, keys(1,2)).

u1 usage(@S,U,sum<B>) :- flow(@S,U,Id,B).
v1 violation(@S,U,B) :- usage(@S,U,B), quota(@S,U,Q), B > Q.
`
	offline := -1.0
	n, err := provnet.NewNetwork(provnet.Config{
		Source:     auditProgram,
		ExtraNodes: []string{"gateway"},
		Prov:       provnet.ProvDistributed,
		Offline:    &offline,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Accountability: PlanetFlow-style traffic auditing ==")

	d := n.Driver()
	insert := func(t provnet.Tuple) {
		if err := d.Inject("gateway", t); err != nil {
			log.Fatal(err)
		}
	}
	// Quotas per user (bytes per window).
	insert(provnet.NewTuple("quota", provnet.Str("gateway"), provnet.Str("alice"), provnet.Int(1000)))
	insert(provnet.NewTuple("quota", provnet.Str("gateway"), provnet.Str("bob"), provnet.Int(1000)))
	// Observed flows.
	for _, f := range []struct {
		user  string
		id, b int64
	}{
		{"alice", 1, 400}, {"alice", 2, 300},
		{"bob", 3, 500}, {"bob", 4, 450}, {"bob", 5, 350},
	} {
		insert(provnet.NewTuple("flow", provnet.Str("gateway"), provnet.Str(f.user),
			provnet.Int(f.id), provnet.Int(f.b)))
	}
	if _, err := n.Run(0); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nper-user usage (call-detail aggregates):")
	for _, tu := range n.Tuples("gateway", "usage") {
		fmt.Printf("  %s used %v bytes\n", tu.Args[1].Str, tu.Args[2])
	}
	fmt.Println("\nquota violations:")
	viol := n.Tuples("gateway", "violation")
	for _, tu := range viol {
		fmt.Printf("  %s over quota: %v bytes\n", tu.Args[1].Str, tu.Args[2])
	}
	if len(viol) == 0 {
		log.Fatal("expected a violation")
	}

	// The audit trail: which flows ground the violation finding? The
	// provenance store answers after the flow soft state expires.
	fmt.Println("\ntwo hours later (flow records expired)...")
	if err := d.Advance(7200); err != nil {
		log.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  live flow records: %d\n", len(n.Tuples("gateway", "flow")))

	tree, _, err := n.DerivationTree("gateway", viol[0], provnet.ProvQueryOpts{Offline: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noffline audit trail for the violation finding:")
	fmt.Print(tree.Render(nil))
	fmt.Println("\n→ the flows justifying the billing decision are still reconstructable")
	fmt.Println("  from offline provenance.")

	// Output:
	// == Accountability: PlanetFlow-style traffic auditing ==
	//
	// per-user usage (call-detail aggregates):
	//   alice used 700 bytes
	//   bob used 1300 bytes
	//
	// quota violations:
	//   bob over quota: 1300 bytes
	//
	// two hours later (flow records expired)...
	//   live flow records: 0
	//
	// offline audit trail for the violation finding:
	// violation(gateway, bob, 1300)
	// └─ v1 @gateway
	//    ├─ usage(gateway, bob, 1300)
	//    │  └─ u1 @gateway
	//    │     ├─ flow(gateway, bob, 3, 500)
	//    │     ├─ flow(gateway, bob, 4, 450)
	//    │     └─ flow(gateway, bob, 5, 350)
	//    └─ quota(gateway, bob, 1000)
	//
	// → the flows justifying the billing decision are still reconstructable
	//   from offline provenance.
}

// Example_diagnostics is the paper's real-time diagnostics use case
// (§3): a continuous query counts routing-table changes over a sliding
// window and raises an alarm tuple when the rate exceeds a threshold —
// possible route divergence — after which the operator inspects the
// online provenance of the offending events. The alarm is soft state:
// when the flapping stops, it expires.
func Example_diagnostics() {
	// change(@S,E) records one routing change event E at node S for a
	// 10-second window; an alarm fires when more than 3 changes are in
	// the window.
	const monitorProgram = `
materialize(change, 10, infinity, keys(1,2)).
materialize(changes, infinity, infinity, keys(1)).
materialize(alarm, 15, infinity, keys(1)).

c1 changes(@S,count<*>) :- change(@S,E).
c2 alarm(@S,N) :- changes(@S,N), N > 3.
`
	n, err := provnet.NewNetwork(provnet.Config{
		Source:     monitorProgram,
		ExtraNodes: []string{"router1"},
		Prov:       provnet.ProvDistributed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Real-time diagnostics: route-flap alarm ==")
	fmt.Println("window 10s, threshold > 3 changes")

	d := n.Driver()
	run := func() {
		if _, err := n.Run(0); err != nil {
			log.Fatal(err)
		}
	}
	advance := func(dt float64) {
		if err := d.Advance(dt); err != nil {
			log.Fatal(err)
		}
		run()
	}
	status := func(label string) {
		count := "-"
		for _, tu := range n.Tuples("router1", "changes") {
			count = tu.Args[1].String()
		}
		fmt.Printf("  t=%4.0fs %-26s window count=%-3s alarms=%d\n",
			n.Clock(), label, count, len(n.Tuples("router1", "alarm")))
	}

	// A flapping link: 5 rapid changes.
	for i := 1; i <= 5; i++ {
		if err := d.Inject("router1", provnet.NewTuple("change", provnet.Str("router1"), provnet.Int(int64(i)))); err != nil {
			log.Fatal(err)
		}
		run()
		advance(1)
	}
	status("after 5 changes in 5s")
	alarms := n.Tuples("router1", "alarm")
	if len(alarms) == 0 {
		log.Fatal("expected an alarm")
	}
	fmt.Printf("\nALARM raised: %s\n", alarms[0])

	// On alarm, query the provenance of the window's events — "a
	// distributed recursive query over the network provenance to detect
	// the source" (§3).
	fmt.Println("provenance of the offending change events:")
	for _, ev := range n.Tuples("router1", "change") {
		tree, _, err := n.DerivationTree("router1", ev, provnet.ProvQueryOpts{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s (base event, recorded at t<=%g)\n", tree.Tuple, n.Clock())
	}

	// The flapping stops; the window empties and the alarm soft state
	// expires on its own.
	fmt.Println("\nflapping stops; advancing time...")
	advance(8)
	status("t+8s: old events expiring")
	advance(10)
	status("t+18s: window empty")
	if len(n.Tuples("router1", "alarm")) == 0 {
		fmt.Println("\nalarm expired with its soft state — the network self-recovered.")
	}

	// Output:
	// == Real-time diagnostics: route-flap alarm ==
	// window 10s, threshold > 3 changes
	//   t=   5s after 5 changes in 5s      window count=5   alarms=1
	//
	// ALARM raised: alarm(router1, 5)
	// provenance of the offending change events:
	//   change(router1, 1) (base event, recorded at t<=5)
	//   change(router1, 2) (base event, recorded at t<=5)
	//   change(router1, 3) (base event, recorded at t<=5)
	//   change(router1, 4) (base event, recorded at t<=5)
	//   change(router1, 5) (base event, recorded at t<=5)
	//
	// flapping stops; advancing time...
	//   t=  13s t+8s: old events expiring  window count=1   alarms=1
	//   t=  23s t+18s: window empty        window count=-   alarms=0
	//
	// alarm expired with its soft state — the network self-recovered.
}

// Example_trustmgmt is the paper's trust-management use case (§3,
// §4.5): an Orchestra-style node examines the condensed provenance of
// incoming routing updates and accepts or rejects them by local policy —
// security-level thresholds, K-votes and blacklists.
func Example_trustmgmt() {
	// Four ASes; "mallory" is distrusted (level 0).
	levels := map[string]int64{"a": 3, "b": 2, "c": 2, "mallory": 0}
	// d is reachable via b, c or mallory; e only through mallory.
	g := provnet.CustomGraph([]provnet.GraphLink{
		{From: "a", To: "b", Cost: 1},
		{From: "b", To: "d", Cost: 1},
		{From: "a", To: "c", Cost: 1},
		{From: "c", To: "d", Cost: 1},
		{From: "mallory", To: "d", Cost: 1},
		{From: "a", To: "mallory", Cost: 1},
		{From: "mallory", To: "e", Cost: 1},
	})
	cfg := provnet.VariantConfig(provnet.VariantSeNDlogProv, provnet.ReachableSeNDlog)
	cfg.Graph = g
	cfg.KeyBits = 1024 // the paper's 2008 setup
	n, err := provnet.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Trust management over condensed provenance ==")
	fmt.Println("levels:", levels)
	fmt.Println("\nroutes known at node a, with provenance:")

	lv := provnet.TrustLevelMap(levels)
	policies := []provnet.TrustPolicy{
		provnet.MinLevelPolicy{Threshold: 2},
		provnet.KVotesPolicy{K: 2},
		provnet.BlacklistPolicy{Banned: map[string]bool{"mallory": true}},
	}
	seen := map[string]bool{}
	for _, tu := range n.Tuples("a", "reachable") {
		fact := tu.WithoutAsserter()
		if seen[fact.String()] {
			continue // the same fact may be asserted by several principals
		}
		seen[fact.String()] = true
		poly := n.FactPoly("a", fact)
		fmt.Printf("\n  %-24s provenance <%s>\n", fact, poly)
		for _, p := range policies {
			d := provnet.NewTrustGate(p, lv, 4).Consider(fact.String(), poly)
			verdict := "REJECT"
			if d.Accept {
				verdict = "accept"
			}
			fmt.Printf("    %-28s %-7s %s\n", p.Name(), verdict, d.Reason)
		}
	}
	fmt.Println("\nreachable(a,e) derives only through mallory: it fails the level")
	fmt.Println("threshold and the blacklist, while reachable(a,d) — independently")
	fmt.Println("witnessed via b, c and mallory — passes every policy.")

	// Output:
	// == Trust management over condensed provenance ==
	// levels: map[a:3 b:2 c:2 mallory:0]
	//
	// routes known at node a, with provenance:
	//
	//   reachable(a, b)          provenance <a>
	//     minlevel(2)                  accept  trust 3 >= 2
	//     kvotes(2)                    REJECT  1 votes < 2
	//     blacklist                    accept  derivable without banned principals
	//
	//   reachable(a, c)          provenance <a>
	//     minlevel(2)                  accept  trust 3 >= 2
	//     kvotes(2)                    REJECT  1 votes < 2
	//     blacklist                    accept  derivable without banned principals
	//
	//   reachable(a, mallory)    provenance <a>
	//     minlevel(2)                  accept  trust 3 >= 2
	//     kvotes(2)                    REJECT  1 votes < 2
	//     blacklist                    accept  derivable without banned principals
	//
	//   reachable(a, d)          provenance <a*b + a*c + a*mallory>
	//     minlevel(2)                  accept  trust 2 >= 2
	//     kvotes(2)                    accept  3 votes >= 2
	//     blacklist                    accept  derivable without banned principals
	//
	//   reachable(a, e)          provenance <a*mallory>
	//     minlevel(2)                  REJECT  trust 0 < 2
	//     kvotes(2)                    REJECT  1 votes < 2
	//     blacklist                    REJECT  all derivations involve banned principals
	//
	// reachable(a,e) derives only through mallory: it fails the level
	// threshold and the blacklist, while reachable(a,d) — independently
	// witnessed via b, c and mallory — passes every policy.
}

// Example_livechurn drives the lifecycle API on the paper's §6
// Best-Path workload: the network runs as a long-lived driver under
// session authentication, a subscription streams one node's best-path
// table, and a link cut withdraws routes and re-converges incrementally —
// no restart, only the affected region pays.
func Example_livechurn() {
	fmt.Println("== Live-network lifecycle: Best-Path under link churn ==")

	g := provnet.RandomGraph(provnet.TopoOptions{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 9})
	cfg := provnet.VariantConfig(provnet.VariantSeNDlog, provnet.BestPath)
	cfg.Graph = g
	cfg.Auth = provnet.AuthSession // handshake once per link, MAC per frame
	cfg.KeyBits = 1024             // the paper's 2008 setup
	n, err := provnet.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := n.Driver()
	sub, err := d.Subscribe("n0", "bestPath")
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()
	if err := d.Start(ctx); err != nil {
		log.Fatal(err)
	}

	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged in %d rounds: %d best paths at n0, %d bytes on the wire\n",
		rep.Rounds, len(n.Tuples("n0", "bestPath")), n.Transport().Stats().Bytes)
	drainUpdates(sub, "  [initial convergence]")

	// Cut a link an installed best path routes over and re-converge.
	cut := loadedLink(n, g)
	before := n.Transport().Stats()
	fmt.Printf("\ncutting link %s->%s ...\n", cut.From, cut.To)
	if err := d.CutLink(cut.From, cut.To); err != nil {
		log.Fatal(err)
	}
	rep, err = d.AwaitQuiescence(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-converged in %d rounds, %d bytes, %d tuples withdrawn network-wide\n",
		rep.Rounds, n.Transport().Stats().Bytes-before.Bytes, rep.Retracted)
	drainUpdates(sub, "  [after cut]")

	// Runtime injection: a brand-new cheap link improves routes live.
	fmt.Printf("\ninstalling new link n5->n0 at cost 1 ...\n")
	if err := d.SetLink("n5", "n0", 1); err != nil {
		log.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pending messages after quiescence: %d\n", n.Transport().PendingCount())
	drainUpdates(sub, "  [after new link]")
	fmt.Printf("updates dropped by the subscriber: %d\n", sub.Dropped())

	// Output:
	// == Live-network lifecycle: Best-Path under link churn ==
	// converged in 7 rounds: 11 best paths at n0, 45210 bytes on the wire
	//   [initial convergence] subscription saw 14 additions, 3 withdrawals
	//
	// cutting link n0->n1 ...
	// re-converged in 6 rounds, 2398 bytes, 10 tuples withdrawn network-wide
	//   [after cut] subscription saw 1 additions, 1 withdrawals
	//
	// installing new link n5->n0 at cost 1 ...
	// pending messages after quiescence: 0
	//   [after new link] subscription saw 0 additions, 0 withdrawals
	// updates dropped by the subscriber: 0
}

// loadedLink returns a link some installed best path routes over, so
// cutting it visibly withdraws routes.
func loadedLink(n *provnet.Network, g *provnet.Graph) provnet.GraphLink {
	for _, l := range g.Links {
		for _, name := range n.Nodes() {
			for _, bp := range n.Tuples(name, "bestPath") {
				p := bp.Args[2]
				for i := 0; i+1 < len(p.List); i++ {
					if p.List[i].Str == l.From && p.List[i+1].Str == l.To {
						return l
					}
				}
			}
		}
	}
	return g.Links[0]
}

// drainUpdates counts what the subscription has buffered.
func drainUpdates(sub *provnet.Subscription, label string) {
	adds, cuts := 0, 0
	for len(sub.Updates()) > 0 {
		if u := <-sub.Updates(); u.Added {
			adds++
		} else {
			cuts++
		}
	}
	fmt.Printf("%s subscription saw %d additions, %d withdrawals\n", label, adds, cuts)
}
