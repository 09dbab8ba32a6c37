package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"weak"

	"provnet/internal/auth"
	"provnet/internal/bdd"
	"provnet/internal/data"
	"provnet/internal/engine"
	"provnet/internal/netsim"
	"provnet/internal/provenance"
	"provnet/internal/semiring"
	"provnet/internal/topo"
)

// paperGraph is the 3-node example of §4: link(a,b), link(a,c), link(b,c).
func paperGraph() *topo.Graph {
	return topo.Custom([]topo.Link{
		{From: "a", To: "b", Cost: 1},
		{From: "a", To: "c", Cost: 1},
		{From: "b", To: "c", Cost: 1},
	})
}

func TestReachableNDlogPaperTopology(t *testing.T) {
	n, rep := mustRun(t, Config{Source: ReachableNDlog, Graph: paperGraph()})
	got := n.Tuples("a", "reachable")
	if len(got) != 2 {
		t.Fatalf("a reachable = %v", got)
	}
	if rep.Messages == 0 || rep.Bytes == 0 {
		t.Error("distributed run must exchange messages")
	}
	if n.Tuples("c", "reachable") != nil {
		t.Error("c reaches nothing")
	}
}

func TestReachableMatchesOracleOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, Seed: seed})
		n, _ := mustRun(t, Config{Source: ReachableNDlog, Graph: g})
		for _, src := range g.Nodes {
			want := g.Reachable(src)
			got := n.Tuples(src, "reachable")
			if len(got) != len(want) {
				t.Fatalf("seed %d node %s: reachable %d tuples, oracle %d", seed, src, len(got), len(want))
			}
			for _, tu := range got {
				if !want[tu.Args[1].Str] {
					t.Fatalf("seed %d: spurious %v", seed, tu)
				}
			}
		}
	}
}

// TestLinkArityFollowsProgram pins that topology links take the shape
// of the program's link atoms. The §2 reachable programs read
// link(@S,D) and derive the full closure from a Graph with nothing else
// set; §6's Best-Path reads link(@S,D,C) and gets the cost column. A
// program whose link has another arity is refused, as a Graph and by
// SetLink, instead of being given facts no rule can match.
func TestLinkArityFollowsProgram(t *testing.T) {
	g := topo.Line(3)
	for _, src := range []string{ReachableNDlog, ReachableSeNDlog} {
		n, _ := mustRun(t, Config{Source: src, Graph: g})
		for _, name := range g.Nodes {
			got := map[string]bool{} // SeNDlog keeps one row per asserter
			for _, tu := range n.Tuples(name, "reachable") {
				got[tu.Args[1].Str] = true
			}
			if want := g.Reachable(name); len(got) != len(want) || len(want) == 0 {
				t.Fatalf("%s reaches %v, oracle %v\nprogram:%s", name, got, want, src)
			}
			for _, l := range n.Tuples(name, "link") {
				if len(l.Args) != 2 {
					t.Fatalf("link fact %v has a cost column the program does not read", l)
				}
			}
		}
	}
	n, _ := mustRun(t, Config{Source: BestPath, Graph: g})
	if l := n.Tuples("n0", "link"); len(l) != 1 || len(l[0].Args) != 3 {
		t.Fatalf("Best-Path link facts at n0 = %v, want one with a cost column", l)
	}

	const quad = `r1 reach(@S,D) :- link(@S,D,C,W).`
	if _, err := NewNetwork(Config{Source: quad, Graph: g}); err == nil || !strings.Contains(err.Error(), "4 arguments") {
		t.Fatalf("a Graph under a 4-ary link: err = %v, want a refusal", err)
	}
	n, err := NewNetwork(Config{Source: quad, ExtraNodes: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Driver().SetLink("a", "b", 1); err == nil || !strings.Contains(err.Error(), "4 arguments") {
		t.Fatalf("SetLink under a 4-ary link: err = %v, want a refusal", err)
	}
}

func TestFigure1DerivationTree(t *testing.T) {
	// Figure 1: the NDlog derivation tree for reachable(a,c), with local
	// provenance so node a holds the complete tree.
	n, _ := mustRun(t, Config{
		Source: ReachableNDlog, Graph: paperGraph(),
		Prov: provenance.ModeLocal,
	})
	target := data.NewTuple("reachable", data.Str("a"), data.Str("c"))
	tree, _, err := n.DerivationTree("a", target, provenance.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Two alternative derivations: r1 from link(a,c) and (via the
	// localization rewrite of r2) from link(a,b) ⋈ reachable(b,c).
	if len(tree.Derivs) != 2 {
		t.Fatalf("derivations = %d\n%s", len(tree.Derivs), tree.Render(nil))
	}
	leaves := tree.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %v", leaves)
	}
	for _, l := range leaves {
		if l.Pred != "link" {
			t.Errorf("leaf %v should be a base link", l)
		}
	}
	rendered := tree.Render(nil)
	if !strings.Contains(rendered, "union") {
		t.Errorf("figure 1 tree should show a union:\n%s", rendered)
	}
}

func TestFigure2CondensedProvenance(t *testing.T) {
	// Figure 2: the SeNDlog derivation of reachable(a,c) carries the
	// condensed annotation <a+a*b> → <a>.
	n, _ := mustRun(t, Config{
		Source: ReachableSeNDlog, Graph: paperGraph(),
		Auth: auth.SchemeRSA, Prov: provenance.ModeCondensed,
	})
	target := data.NewTuple("reachable", data.Str("a"), data.Str("c")).Says("a")
	if got := n.CondensedExpr("a", target); got != "<a>" {
		t.Fatalf("condensed provenance = %q, want <a>", got)
	}
	// The same fact as asserted by b (derived at b via s3 from a's linkD
	// and b's own reachable) carries the product <a*b>.
	viaB := data.NewTuple("reachable", data.Str("a"), data.Str("c")).Says("b")
	if got := n.CondensedExpr("a", viaB); got != "<a*b>" {
		t.Fatalf("b-asserted condensed provenance = %q, want <a*b>", got)
	}
	// Unioning both assertions of the fact yields the paper's uncondensed
	// annotation a + a*b, which condenses to a.
	union := n.FactPoly("a", target.WithoutAsserter())
	if got := union.String(); got != "a + a*b" {
		t.Fatalf("fact poly = %q, want a + a*b", got)
	}
	// Quantifiable provenance (§4.5): with level(a)=2 the trust is 2.
	p := n.Poly("a", target)
	levels := map[string]int64{"a": 2, "b": 1}
	trust := semiring.Eval[int64](p, semiring.Trust{}, func(v string) int64 { return levels[v] })
	if trust != 2 {
		t.Errorf("trust = %d, want 2", trust)
	}
}

func TestBestPathMatchesDijkstra(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
		n, _ := mustRun(t, Config{Source: BestPath, Graph: g})
		for _, src := range g.Nodes {
			want := g.Dijkstra(src)
			got := map[string]int64{}
			for _, bp := range n.Tuples(src, "bestPath") {
				got[bp.Args[1].Str] = bp.Args[3].AsInt()
			}
			for dst, cost := range want {
				if dst == src {
					continue
				}
				if got[dst] != cost {
					t.Fatalf("seed %d: bestPath(%s,%s) = %d, oracle %d", seed, src, dst, got[dst], cost)
				}
			}
		}
	}
}

func TestBestPathPathsAreValid(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 8, AvgOutDegree: 3, MaxCost: 5, Seed: 9})
	n, _ := mustRun(t, Config{Source: BestPath, Graph: g})
	adj := g.Adjacency()
	for _, src := range g.Nodes {
		for _, bp := range n.Tuples(src, "bestPath") {
			path := bp.Args[2].List
			cost := bp.Args[3].AsInt()
			if path[0].Str != src || path[len(path)-1].Str != bp.Args[1].Str {
				t.Fatalf("path endpoints wrong: %v", bp)
			}
			var sum int64
			for i := 0; i+1 < len(path); i++ {
				c, ok := adj[path[i].Str][path[i+1].Str]
				if !ok {
					t.Fatalf("path uses missing link %s->%s: %v", path[i].Str, path[i+1].Str, bp)
				}
				sum += c
			}
			if sum != cost {
				t.Fatalf("path cost %d != claimed %d: %v", sum, cost, bp)
			}
		}
	}
}

func TestVariantsAgreeOnResults(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 8, AvgOutDegree: 3, MaxCost: 10, Seed: 3})
	costs := make([]map[string]int64, 3)
	bytes := make([]int64, 3)
	for i, v := range []Variant{VariantNDlog, VariantSeNDlog, VariantSeNDlogProv} {
		cfg := VariantConfig(v, BestPath)
		cfg.Graph = g
		n, rep := mustRun(t, cfg)
		bytes[i] = rep.Bytes
		costs[i] = map[string]int64{}
		for _, src := range g.Nodes {
			for _, bp := range n.Tuples(src, "bestPath") {
				costs[i][src+">"+bp.Args[1].Str] = bp.Args[3].AsInt()
			}
		}
		if v != VariantNDlog && rep.Signed == 0 {
			t.Errorf("%v must sign messages", v)
		}
		if v == VariantNDlog && rep.Signed != 0 {
			t.Error("NDlog must not sign")
		}
	}
	// All three compute identical best paths.
	for k, c := range costs[0] {
		if costs[1][k] != c || costs[2][k] != c {
			t.Fatalf("variant disagreement on %s: %d/%d/%d", k, c, costs[1][k], costs[2][k])
		}
	}
	// The paper's bandwidth ordering: NDlog < SeNDlog < SeNDlogProv.
	if !(bytes[0] < bytes[1] && bytes[1] < bytes[2]) {
		t.Errorf("bandwidth ordering violated: %v", bytes)
	}
}

func TestTamperedEnvelopeRejected(t *testing.T) {
	cfg := Config{Source: ReachableNDlog, Graph: paperGraph(),
		Auth: auth.SchemeRSA, KeyBits: 512}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a message: correct format, wrong signature.
	env := &frame{kind: kindData, from: "b", items: []item{
		{tuple: data.NewTuple("reachable", data.Str("a"), data.Str("zz"))}}}
	forged, err := env.seal(new(roundScratch), auth.SignerSealer{S: auth.NoneSigner{}}, "a") // empty signature
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Transport().Send("b", "a", forged); err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedSig != 1 {
		t.Errorf("rejected = %d, want 1", rep.RejectedSig)
	}
	for _, tu := range n.Tuples("a", "reachable") {
		if tu.Args[1].Str == "zz" {
			t.Fatal("forged tuple accepted")
		}
	}
}

// resealTap is the in-memory fabric in front of a forger: the first
// data frame b ships to a goes out as forge rewrites it.
type resealTap struct {
	*netsim.Network
	forge  func(p []byte) []byte
	forged bool
}

func (rt *resealTap) Send(from, to string, payload []byte) error {
	if from == "b" && to == "a" && payload[0] == kindData && !rt.forged {
		rt.forged = true
		payload = rt.forge(payload)
	}
	return rt.Network.Send(from, to, payload)
}

// TestSealAuthenticatesSenderOnly pins what a data frame's seal vouches
// for: that its sender sent these bytes, and no more. Node b decodes one
// of its own ModeCondensed frames, rewrites every item's polynomial to
// <c> and re-seals it with its own valid RSA key; a imports the frame as
// it would an honest one, and the fact's provenance at a names c, who
// said nothing. The polynomial's variables other than the sender are the
// sender's claim (docs/ARCHITECTURE.md, "What a seal authenticates").
func TestSealAuthenticatesSenderOnly(t *testing.T) {
	tap := &resealTap{Network: netsim.New()}
	cfg := Config{Source: ReachableSeNDlog, Graph: paperGraph(),
		Auth: auth.SchemeRSA, KeyBits: 512, Prov: provenance.ModeCondensed, Transport: tap}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var forged []data.Tuple // written on b's worker, read after Run
	tap.forge = func(p []byte) []byte {
		dec := data.NewDecoder(nil)
		defer dec.Release()
		f := new(frame)
		if err := f.decode(p, nil, dec); err != nil {
			t.Error(err)
			return p
		}
		m := bdd.New()
		var refs []uint64
		f.table, refs = m.AppendTable(nil, nil, []bdd.Node{m.Var("c")})
		for i := range f.items {
			f.items[i].ref = refs[0] + 1
			forged = append(forged, f.items[i].tuple.Clone())
		}
		resealed, err := f.seal(new(roundScratch), n.control, "a")
		if err != nil {
			t.Error(err)
			return p
		}
		return resealed
	}
	rep, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(forged) == 0 {
		t.Fatal("b shipped no data frame to a")
	}
	if rep.RejectedSig != 0 {
		t.Errorf("RejectedSig = %d, want 0: the frame is b's, validly sealed", rep.RejectedSig)
	}
	for _, tu := range forged {
		if tu.Asserter != "b" {
			t.Errorf("%s: asserter %q, want b", tu, tu.Asserter)
		}
		// An honest run reads <a + a*b> = <a> (Figure 2).
		if got := n.FactPoly("a", tu).String(); got != "a + c" {
			t.Errorf("FactPoly(a, %s) = %s, want a + c", tu, got)
		}
	}
}

func TestDistributedTraceThroughCore(t *testing.T) {
	n, _ := mustRun(t, Config{
		Source: ReachableNDlog, Graph: paperGraph(),
		Prov: provenance.ModeDistributed,
	})
	target := data.NewTuple("reachable", data.Str("a"), data.Str("c"))
	tree, stats, err := n.DerivationTree("a", target, provenance.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves()) == 0 {
		t.Fatalf("empty trace:\n%s", tree.Render(nil))
	}
	if stats.Messages == 0 {
		t.Error("distributed trace must cross nodes")
	}
}

func TestSoftStateAcrossNetwork(t *testing.T) {
	src := `
materialize(link, 10, infinity, keys(1,2)).
r1 reachable(@S,D) :- link(@S,D).
`
	n, _ := mustRun(t, Config{Source: src, Graph: paperGraph()})
	if len(n.Tuples("a", "link")) != 2 {
		t.Fatal("links live")
	}
	if err := n.Driver().Advance(20); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	if n.Clock() != 20 {
		t.Fatalf("clock = %v, want 20", n.Clock())
	}
	if len(n.Tuples("a", "link")) != 0 {
		t.Fatal("links must expire")
	}
}

func TestInsertFactAndRerun(t *testing.T) {
	n, _ := mustRun(t, Config{Source: ReachableNDlog, Graph: paperGraph()})
	// A new link c->a appears at runtime.
	d := n.Driver()
	if err := d.Inject("c", data.NewTuple("link", data.Str("c"), data.Str("a"))); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	// Now the graph is cyclic: c reaches everything.
	if got := len(n.Tuples("c", "reachable")); got != 3 {
		t.Fatalf("c reachable = %d, want 3", got)
	}
	if err := d.Inject("ghost", data.NewTuple("link", data.Str("g"), data.Str("h"))); err == nil {
		t.Error("unknown node must fail")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := NewNetwork(Config{Source: "syntax error ..."}); err == nil {
		t.Error("bad program must fail")
	}
	if _, err := NewNetwork(Config{Source: ReachableNDlog}); err == nil {
		t.Error("no nodes must fail")
	}
	bad := Config{Source: `r1 p(@S,X) :- q(@S,D).`, ExtraNodes: []string{"a"}}
	if _, err := NewNetwork(bad); err == nil {
		t.Error("unsafe program must fail")
	}
}

// TestProvenanceHasOneHome pins where each mode keeps its record: only
// ModeDistributed has a pointer store, and the options that configure
// that store are refused with any other mode instead of filling a copy
// nothing reads.
func TestProvenanceHasOneHome(t *testing.T) {
	off := 1.0
	for _, mode := range []provenance.Mode{provenance.ModeNone, provenance.ModeLocal, provenance.ModeDistributed, provenance.ModeCondensed} {
		n, _ := mustRun(t, Config{Source: ReachableNDlog, Graph: paperGraph(), Prov: mode})
		if has := n.Node("a").Store != nil; has != (mode == provenance.ModeDistributed) {
			t.Errorf("%v: node has a provenance store = %v", mode, has)
		}
		if mode == provenance.ModeDistributed {
			continue
		}
		for _, cfg := range []Config{{Offline: &off}, {SampleEvery: 2}} {
			cfg.Source, cfg.ExtraNodes, cfg.Prov = ReachableNDlog, []string{"a"}, mode
			_, err := NewNetwork(cfg)
			if err == nil || !strings.Contains(err.Error(), "ModeDistributed") || !strings.Contains(err.Error(), mode.String()) {
				t.Errorf("%v with Offline=%v SampleEvery=%d: err = %v, want a refusal naming both modes", mode, cfg.Offline != nil, cfg.SampleEvery, err)
			}
		}
	}
}

// TestRekeyRequiresSessions: only the session sealer rotates keys, so
// RekeyRounds under any other scheme is refused instead of ignored.
func TestRekeyRequiresSessions(t *testing.T) {
	for _, scheme := range []auth.Scheme{auth.SchemeNone, auth.SchemeHMAC, auth.SchemeRSA} {
		_, err := NewNetwork(Config{Source: ReachableNDlog, ExtraNodes: []string{"a"}, Auth: scheme, RekeyRounds: 3})
		if err == nil || !strings.Contains(err.Error(), "RekeyRounds") || !strings.Contains(err.Error(), "SchemeSession") || !strings.Contains(err.Error(), scheme.String()) {
			t.Errorf("%v with RekeyRounds=3: err = %v, want a refusal naming both settings", scheme, err)
		}
	}
	n, err := NewNetwork(Config{Source: ReachableNDlog, ExtraNodes: []string{"a"}, Auth: auth.SchemeSession, RekeyRounds: 3, KeyBits: 512})
	if err != nil {
		t.Fatalf("session with RekeyRounds=3: %v", err)
	}
	n.Close()
}

// TestRefusedKeySizeFailsAtNew: a key size crypto/rsa will not sign with
// fails NewNetwork at the first principal's key, not the first seal after
// every key has been generated.
func TestRefusedKeySizeFailsAtNew(t *testing.T) {
	t.Setenv("GODEBUG", "rsa1024min=1")
	g := topo.Ring(6)
	for _, scheme := range []auth.Scheme{auth.SchemeRSA, auth.SchemeSession} {
		_, err := NewNetwork(Config{Source: ReachableNDlog, Graph: g, Auth: scheme, KeyBits: 512})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q's 512-bit key", g.Nodes[0])) {
			t.Errorf("%v with 512-bit keys under rsa1024min=1: err = %v, want a refusal at %s's key", scheme, err, g.Nodes[0])
		}
	}
}

// TestClosedNetworkIsCollectable pins that nothing process-wide retains
// a network's tuples once it is closed: every path row's argument array
// must be garbage after Close.
func TestClosedNetworkIsCollectable(t *testing.T) {
	rows := func() []weak.Pointer[data.Value] {
		g := topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 2, MaxCost: 5, Seed: 1})
		n, _ := mustRun(t, Config{Source: BestPath, Graph: g, Prov: provenance.ModeCondensed})
		var out []weak.Pointer[data.Value]
		for _, name := range n.Nodes() {
			for _, tu := range n.Tuples(name, "path") {
				out = append(out, weak.Make(&tu.Args[0]))
			}
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}()
	if len(rows) == 0 {
		t.Fatal("no path rows")
	}
	runtime.GC()
	runtime.GC()
	alive := 0
	for _, p := range rows {
		if p.Value() != nil {
			alive++
		}
	}
	if alive != 0 {
		t.Fatalf("%d of %d path rows still reachable after Close", alive, len(rows))
	}
}

// TestEnginesShareOneProgram pins compile-once: NewNetwork compiles the
// localized program once, and every engine of the network holds that
// one *engine.Program.
func TestEnginesShareOneProgram(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, MaxCost: 10, Seed: 1})
	n, _ := mustRun(t, Config{Source: BestPath, Graph: g})
	defer n.Close()
	unloaded := engine.New(engine.Config{}).Program()
	want := n.Node(n.Nodes()[0]).Engine.Program()
	if want == unloaded {
		t.Fatal("the engines hold no program")
	}
	for _, name := range n.Nodes() {
		if got := n.Node(name).Engine.Program(); got != want {
			t.Errorf("%s holds its own compiled program", name)
		}
	}
}

func TestLocalProvenanceOverRSA(t *testing.T) {
	// A SeNDlog run under per-round RSA seals ships each tuple's whole
	// derivation tree (ModeLocal); the receiver keeps it as sent.
	n, rep := mustRun(t, Config{
		Source: ReachableSeNDlog, Graph: paperGraph(),
		Auth: auth.SchemeRSA, Prov: provenance.ModeLocal,
	})
	if rep.RejectedSig != 0 {
		t.Fatalf("unexpected rejections: %d", rep.RejectedSig)
	}
	target := data.NewTuple("reachable", data.Str("a"), data.Str("c")).Says("b")
	tree, _, err := n.DerivationTree("a", target, provenance.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// The tree's polynomial matches the SeNDlog derivation (a*b for the
	// b-asserted copy: a's linkD joined with b's own tuple).
	if got := provenance.TreePoly(tree, "a").String(); got != "a*b" {
		t.Errorf("tree poly = %q, want a*b", got)
	}
}

func TestReportFields(t *testing.T) {
	_, rep := mustRun(t, Config{Source: ReachableNDlog, Graph: paperGraph()})
	if rep.Rounds <= 0 || rep.CompletionTime <= 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Derivations == 0 || rep.TuplesStored == 0 {
		t.Errorf("engine stats missing: %+v", rep)
	}
}

func TestVariantStrings(t *testing.T) {
	if VariantNDlog.String() != "NDlog" || VariantSeNDlog.String() != "SeNDlog" ||
		VariantSeNDlogProv.String() != "SeNDlogProv" {
		t.Error("variant names")
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant renders")
	}
}

func TestHMACVariant(t *testing.T) {
	// The cheaper "says" of §2.2: HMAC instead of RSA.
	cfg := Config{Source: ReachableNDlog, Graph: paperGraph(), Auth: auth.SchemeHMAC}
	n, rep := mustRun(t, cfg)
	if rep.Signed == 0 || rep.Verified == 0 {
		t.Error("HMAC messages must be authenticated")
	}
	if len(n.Tuples("a", "reachable")) != 2 {
		t.Error("results unchanged under HMAC")
	}
}
