package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"provnet/internal/auth"
	"provnet/internal/data"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// rebuiltView is the oracle of the incremental publish: the same network
// state rendered from scratch, every row of every table of every node,
// as every publish did before views were patched.
func rebuiltView(n *Network, like *ReadView) *ReadView {
	return n.buildView(&ReadView{}, like.Seq, like.gen)
}

// diffViews reports the first difference between two views, row for row
// (tuple, provenance expression, order), or "".
func diffViews(got, want *ReadView) string {
	if len(got.nodes) != len(want.nodes) {
		return fmt.Sprintf("%d nodes, want %d", len(got.nodes), len(want.nodes))
	}
	for _, name := range want.Nodes() {
		if !got.HasNode(name) {
			return "node " + name + " missing"
		}
		if gp, wp := fmt.Sprint(got.Predicates(name)), fmt.Sprint(want.Predicates(name)); gp != wp {
			return fmt.Sprintf("%s: tables %s, want %s", name, gp, wp)
		}
		for _, pred := range want.Predicates(name) {
			gr, wr := got.Rows(name, pred), want.Rows(name, pred)
			if len(gr) != len(wr) {
				return fmt.Sprintf("%s/%s: %d rows, want %d", name, pred, len(gr), len(wr))
			}
			for i := range wr {
				if data.CompareTuples(gr[i].Tuple, wr[i].Tuple) != 0 || gr[i].Prov != wr[i].Prov {
					return fmt.Sprintf("%s/%s row %d: %s [%s], want %s [%s]", name, pred, i,
						gr[i].Tuple, gr[i].Prov, wr[i].Tuple, wr[i].Prov)
				}
			}
		}
	}
	if got.Dump() != want.Dump() {
		return "Dump() differs"
	}
	return ""
}

// softReachable is all-pairs reachability over soft state: links and what
// is derived from them lapse unless refreshed, so Advance sweeps rows out
// of the tables. noise is a predicate no rule reads, for bursts that
// outgrow a table's dirt limit; ring is size-bounded, so inserting into
// it evicts rows, which the engine reports as expiries.
const softReachable = `
materialize(link, 10, infinity, keys(1,2)).
materialize(reachable, 10, infinity, keys(1,2)).
materialize(ring, infinity, 3, keys(1,2)).
r1 reachable(@S,D) :- link(@S,D).
r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
`

// TestIncrementalViewMatchesRebuild is the differential pin of the
// copy-on-write publish: seeded scripts of cut / restore / re-cost /
// inject / retract / burst / Advance run through the driver, and after
// every quiescence the published view — patched from its predecessor —
// must equal a from-scratch rebuild of the same state row for row, and
// Seq must have advanced exactly when an engine reported a change.
//
// Each of the paths that make patching safe is load-bearing here; the
// test fails when any one is removed: the full build of a node's first
// view, the rebuild after a table's dirt overflows (the burst op), the
// rebuild after an expiry sweep (softReachable + Advance), reporting the
// rows a size bound evicts (ring) — to the view, to the durable store,
// whose live rows must equal the view's, and to a subscription on ring
// — and dirtying rows on annotation-only merges (the Prov column under
// ModeCondensed).
func TestIncrementalViewMatchesRebuild(t *testing.T) {
	programs := []struct {
		name   string
		source string
		noCost bool
	}{
		{"bestpath", BestPath, false},
		{"reachable", ReachableNDlog, true},
		{"soft", softReachable, true},
	}
	modes := []provenance.Mode{provenance.ModeNone, provenance.ModeLocal, provenance.ModeDistributed, provenance.ModeCondensed}
	for _, p := range programs {
		for _, mode := range modes {
			for _, sequential := range []bool{true, false} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/sequential=%v/seed=%d", p.name, mode, sequential, seed)
					t.Run(name, func(t *testing.T) {
						g := topo.RandomConnected(topo.Options{N: 8, AvgOutDegree: 2, MaxCost: 5, Seed: seed})
						n, err := NewNetwork(Config{
							Source: p.source, Graph: g,
							Prov: mode, Auth: auth.SchemeNone,
							Sequential: sequential, Store: NewMemStore(),
						})
						if err != nil {
							t.Fatal(err)
						}
						runViewScript(t, n, g, p.noCost, p.source == softReachable, seed)
					})
				}
			}
		}
	}
}

// runViewScript drives one seeded mutation script through n's
// synchronous driver, checking the published view after every
// quiescence.
func runViewScript(t *testing.T, n *Network, g *topo.Graph, noCost, soft bool, seed int64) {
	t.Helper()
	d := n.Driver()
	ctx := context.Background()
	r := rand.New(rand.NewSource(seed))
	linkFact := func(l topo.Link) data.Tuple {
		if noCost {
			return data.NewTuple("link", data.Str(l.From), data.Str(l.To))
		}
		return data.NewTuple("link", data.Str(l.From), data.Str(l.To), data.Int(l.Cost))
	}

	// ring is the subscription's copy of the ring table at g.Nodes[0],
	// kept from its updates alone.
	sub, err := d.Subscribe(g.Nodes[0], "ring")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ring := map[string]bool{}
	var prevSeq, prevGen uint64
	check := func(step string) {
		t.Helper()
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		v := d.ReadView()
		if diff := diffViews(v, rebuiltView(n, v)); diff != "" {
			t.Fatalf("after %s: published view differs from a rebuild: %s", step, diff)
		}
		if live := n.StoreOf().(*MemStore).State().LiveDump(); live != v.Dump() {
			t.Fatalf("after %s: store live rows differ from the view:\n%s\nview:\n%s", step, live, v.Dump())
		}
		for len(sub.Updates()) > 0 {
			if u := <-sub.Updates(); u.Added {
				ring[u.Tuple.String()] = true
			} else {
				delete(ring, u.Tuple.String())
			}
		}
		rows := v.Rows(g.Nodes[0], "ring")
		same := len(ring) == len(rows)
		for _, row := range rows {
			same = same && ring[row.Tuple.String()]
		}
		if !same {
			t.Fatalf("after %s: the subscription's ring is %v, the view's %v", step, ring, rows)
		}
		gen := n.mutGen.Load()
		if changed := gen != prevGen; changed != (v.Seq != prevSeq) || v.Seq > prevSeq+1 {
			t.Fatalf("after %s: Seq %d→%d with engines changed=%v", step, prevSeq, v.Seq, changed)
		}
		prevSeq, prevGen = v.Seq, gen
	}
	check("initial convergence")

	up := append([]topo.Link(nil), g.Links...)
	var down []topo.Link
	bursts := map[string]int{}
	for step := 0; step < 24; step++ {
		var what string
		op := r.Intn(8)
		if soft && step%6 == 5 {
			op = 5
		}
		switch {
		case op == 0 && len(up) > 1: // cut
			i := r.Intn(len(up))
			l := up[i]
			up = append(up[:i], up[i+1:]...)
			down = append(down, l)
			what = fmt.Sprintf("cut %s→%s", l.From, l.To)
			if err := d.CutLink(l.From, l.To); err != nil {
				t.Fatal(err)
			}
		case op == 1 && len(down) > 0: // restore
			i := r.Intn(len(down))
			l := down[i]
			down = append(down[:i], down[i+1:]...)
			up = append(up, l)
			what = fmt.Sprintf("restore %s→%s", l.From, l.To)
			if err := d.SetLink(l.From, l.To, l.Cost); err != nil {
				t.Fatal(err)
			}
		case op == 2 && !noCost: // re-cost
			i := r.Intn(len(up))
			up[i].Cost = 1 + r.Int63n(5)
			what = fmt.Sprintf("re-cost %s→%s to %d", up[i].From, up[i].To, up[i].Cost)
			if err := d.SetLink(up[i].From, up[i].To, up[i].Cost); err != nil {
				t.Fatal(err)
			}
		case op == 3: // retract a base fact, then put it back: one quiescence
			l := up[r.Intn(len(up))]
			what = fmt.Sprintf("retract+inject link %s→%s", l.From, l.To)
			if err := d.Retract(l.From, linkFact(l)); err != nil {
				t.Fatal(err)
			}
			if err := d.Inject(l.From, linkFact(l)); err != nil {
				t.Fatal(err)
			}
		case op == 4: // burst: outgrow one table's dirt limit, in or out
			node := g.Nodes[r.Intn(len(g.Nodes))]
			facts := make([]data.Tuple, 120)
			for i := range facts {
				facts[i] = data.NewTuple("noise", data.Str(node), data.Int(int64(i)))
			}
			if bursts[node]%2 == 0 {
				what = "burst into " + node
				err := d.Inject(node, facts...)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				what = "burst out of " + node
				if err := d.Retract(node, facts...); err != nil {
					t.Fatal(err)
				}
			}
			bursts[node]++
		case op == 5 && soft: // the bounded table: the third op on evicts
			node := g.Nodes[0]
			what = "ring insert at " + node
			for i := 0; i < 2; i++ {
				if err := d.Inject(node, data.NewTuple("ring", data.Str(node), data.Int(int64(2*step+i)))); err != nil {
					t.Fatal(err)
				}
			}
		case op == 6 && soft: // refresh some links, let the others lapse
			what = "refresh+advance"
			for _, l := range up {
				if r.Intn(2) == 0 {
					if err := d.Inject(l.From, linkFact(l)); err != nil {
						t.Fatal(err)
					}
				}
			}
			check("refresh")
			if err := d.Advance(6); err != nil {
				t.Fatal(err)
			}
		case op == 7 && soft:
			what = "advance"
			if err := d.Advance(float64(1 + r.Intn(5))); err != nil {
				t.Fatal(err)
			}
		default: // a quiescence with nothing to do: Seq must hold
			what = "no-op"
		}
		check(fmt.Sprintf("step %d (%s)", step, what))
	}
}

// TestViewSharesUnchangedTables pins the structural sharing: a link flap
// changes the tables of the nodes that routed over the link and nothing
// else, so the next view must reuse every other node's table list (the
// same backing array) and, in the nodes it did touch, the rows of every
// table it did not (the same backing array again) — the link tables of
// all nodes but the link's owner among them.
func TestViewSharesUnchangedTables(t *testing.T) {
	// n0→n1→n2→n3→n4, and back only n1→n0: nothing downstream routes
	// over n0→n1, so its flap reaches n0 (the owner) and n1 (which
	// extends n0's paths for it) and no table of n2…n4.
	g := topo.Custom([]topo.Link{
		{From: "n0", To: "n1", Cost: 1}, {From: "n1", To: "n2", Cost: 1},
		{From: "n2", To: "n3", Cost: 1}, {From: "n3", To: "n4", Cost: 1},
		{From: "n1", To: "n0", Cost: 1},
	})
	n, err := NewNetwork(Config{Source: BestPath, Graph: g, Prov: provenance.ModeCondensed})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx := context.Background()
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	sameRows := func(a, b []ViewRow) bool { return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0] }
	sameTables := func(a, b *ReadView, name string) bool {
		at, bt := a.node(name).tables, b.node(name).tables
		return len(at) == len(bt) && len(at) > 0 && &at[0] == &bt[0]
	}

	for _, flap := range []func() error{
		func() error { return d.CutLink("n0", "n1") },
		func() error { return d.SetLink("n0", "n1", 1) },
	} {
		before := d.ReadView()
		if err := flap(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatal(err)
		}
		after := d.ReadView()
		if after == before || after.Seq != before.Seq+1 {
			t.Fatalf("flap did not publish a new view: Seq %d→%d", before.Seq, after.Seq)
		}
		if diff := diffViews(after, rebuiltView(n, after)); diff != "" {
			t.Fatal(diff)
		}
		if sameTables(after, before, "n0") {
			t.Errorf("n0 changed but its table list is shared")
		}
		for _, name := range []string{"n2", "n3", "n4"} {
			if !sameTables(after, before, name) {
				t.Errorf("%s: untouched node's table list was rebuilt", name)
			}
		}
		for _, name := range []string{"n1", "n2", "n3"} { // n4 owns no link
			if !sameRows(after.Rows(name, "link"), before.Rows(name, "link")) {
				t.Errorf("%s: link table was rebuilt", name)
			}
		}
	}

	// Within a touched node, the untouched tables are shared too: a new
	// fact in a table of its own leaves n0's routing tables alone.
	before := d.ReadView()
	if err := d.Inject("n0", data.NewTuple("note", data.Str("n0"), data.Int(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	after := d.ReadView()
	for _, pred := range before.Predicates("n0") {
		if !sameRows(after.Rows("n0", pred), before.Rows("n0", pred)) {
			t.Errorf("n0/%s: untouched table was rebuilt", pred)
		}
	}
	if len(after.Rows("n0", "note")) != 1 {
		t.Errorf("n0/note: %v", after.Rows("n0", "note"))
	}
}

// churnNetwork is the live-churn benchmark's shape — Best-Path on a
// random N=24 graph under session MACs and condensed provenance —
// converged and ready to flap.
func churnNetwork(t testing.TB) (*Network, *topo.Graph) {
	t.Helper()
	g := topo.RandomConnected(topo.Options{N: 24, AvgOutDegree: 3, MaxCost: 10, Seed: 1})
	n, err := NewNetwork(Config{
		Source: BestPath, Graph: g, KeyBits: 512,
		Auth: auth.SchemeSession, Prov: provenance.ModeCondensed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Driver().AwaitQuiescence(context.Background()); err != nil {
		t.Fatal(err)
	}
	return n, g
}

// TestPublishAllocations bounds what a publish allocates: nothing when
// no engine changed, and for each half of a link flap on N=24 two
// objects for the view (itself and its node list), two for each node an
// engine update touched (its table list and its rows' arena) and one for
// each table rebuilt from the engine (Engine.Tuples' copy) — nothing per
// table, per row or per untouched node. The flap's new provenance
// expressions are rendered before the publish is measured.
func TestPublishAllocations(t *testing.T) {
	n, g := churnNetwork(t)
	d := n.Driver()
	ctx := context.Background()

	d.runMu.Lock()
	noop := testing.AllocsPerRun(20, d.publishViewLocked)
	d.runMu.Unlock()
	if noop != 0 {
		t.Errorf("no-op republish: %v allocs, want 0", noop)
	}

	// Step the network to quiescence by hand, so that the publish can be
	// measured on its own.
	settle := func() {
		t.Helper()
		for {
			progress, err := d.Step(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !progress {
				return
			}
		}
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC() // so that no cycle starts, and allocates, inside f
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	rebuild := mallocs(func() { rebuiltView(n, d.ReadView()) })

	var worst uint64
	for i := 0; i < 12; i++ {
		l := g.Links[(i*7)%len(g.Links)]
		for _, half := range []func() error{
			func() error { return d.CutLink(l.From, l.To) },
			func() error { return d.SetLink(l.From, l.To, l.Cost) },
		} {
			if err := half(); err != nil {
				t.Fatal(err)
			}
			settle()
			// Count what the publish will build, and render the changed
			// rows' provenance expressions ahead of it: a BDD node's
			// first rendering is the provenance layer's cost, memoised
			// for every later view.
			touched, rebuilt := 0, 0
			for _, name := range n.order {
				nd := n.nodes[name]
				if !nd.touched {
					continue
				}
				touched++
				for _, td := range nd.dirt {
					tuples := td.tuples
					if td.whole(nd) {
						rebuilt++
						tuples = nd.Engine.Tuples(td.pred)
					}
					for _, tu := range tuples {
						nd.Tracker.ExprOf(nd.Engine.AnnotationOf(tu))
					}
				}
			}
			bound := uint64(2 + 2*touched + rebuilt)
			seq := d.ReadView().Seq
			d.runMu.Lock()
			got := mallocs(d.publishViewLocked)
			d.runMu.Unlock()
			if d.ReadView().Seq != seq+1 {
				t.Fatalf("flap half %d published nothing", i)
			}
			if got > bound {
				t.Errorf("flap half %d: the publish allocated %d objects for %d touched nodes and %d rebuilt tables, want at most %d", i, got, touched, rebuilt, bound)
			}
			worst = max(worst, got)
		}
	}
	t.Logf("allocations: no-op %v, worst flap-half publish %v, whole rebuild %v", noop, worst, rebuild)
	if diff := diffViews(d.ReadView(), rebuiltView(n, d.ReadView())); diff != "" {
		t.Fatal(diff)
	}
}

// TestViewReadersDuringChurn reads the published views from several
// goroutines while a live driver flaps links and publishes patched
// successors: under -race this proves a publish never writes to anything
// an earlier view still shares.
func TestViewReadersDuringChurn(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, MaxCost: 10, Seed: 2})
	n, err := NewNetwork(Config{Source: BestPath, Graph: g, Prov: provenance.ModeCondensed})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*ReadView // keep old views alive and re-read them
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := d.ReadView()
				if len(held) == 0 || held[len(held)-1] != v {
					held = append(held, v)
				}
				for _, hv := range held {
					rows, bytes := 0, 0
					for _, name := range hv.Nodes() {
						for _, pred := range hv.Predicates(name) {
							for _, row := range hv.Rows(name, pred) {
								rows++
								bytes += len(row.Prov) + len(row.Tuple.Args)
							}
						}
					}
					if rows == 0 || bytes == 0 {
						t.Errorf("view %d read empty", hv.Seq)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 12; i++ {
		l := g.Links[(i*5)%len(g.Links)]
		if err := d.CutLink(l.From, l.To); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatal(err)
		}
		if err := d.SetLink(l.From, l.To, l.Cost); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	d.runMu.Lock()
	diff := diffViews(d.ReadView(), rebuiltView(n, d.ReadView()))
	d.runMu.Unlock()
	if diff != "" {
		t.Fatal(diff)
	}
}

// TestViewFollowsStoredNumericForm covers the one case where a row's
// identity and its rendering part ways: Int 2 and Float 2.0 are the same
// row to the engine and different text in the view. A row retracted and
// re-added under the other form between two publishes must come out of
// the patch exactly as a rebuild renders it.
func TestViewFollowsStoredNumericForm(t *testing.T) {
	n, err := NewNetwork(Config{Source: ReachableNDlog, Graph: paperGraph()})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx := context.Background()
	asInt := data.NewTuple("metric", data.Str("a"), data.Int(2))
	asFloat := data.NewTuple("metric", data.Str("a"), data.Float(2))
	steps := []struct {
		name string
		do   func() error
		want string
	}{
		{"inject int", func() error { return d.Inject("a", asInt) }, "metric(a, 2)"},
		{"retract by float form, re-add as float", func() error {
			if err := d.Retract("a", asFloat); err != nil {
				return err
			}
			return d.Inject("a", asFloat)
		}, asFloat.String()},
		{"re-inject int form: the stored float row stays", func() error { return d.Inject("a", asInt) }, asFloat.String()},
		{"retract by int form", func() error { return d.Retract("a", asInt) }, ""},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatal(err)
		}
		v := d.ReadView()
		if diff := diffViews(v, rebuiltView(n, v)); diff != "" {
			t.Fatalf("%s: %s", s.name, diff)
		}
		got := ""
		for _, row := range v.Rows("a", "metric") {
			got += row.Tuple.String()
		}
		if got != s.want {
			t.Errorf("%s: metric rows %q, want %q", s.name, got, s.want)
		}
	}
}
