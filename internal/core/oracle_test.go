package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"provnet/internal/data"
	"provnet/internal/datalog"
	"provnet/internal/topo"
)

// This file is the tests' one fresh-run oracle: the renderer of network
// state, the graph a cut leaves, the fresh run, and a script runner that
// drives a live network through Driver events and, after every step,
// holds its rendering beside a fresh run's on that step's inputs.

// shape says what a rendering holds.
type shape struct {
	node  string                           // only this node ("": every node the network hosts)
	preds []string                         // these predicates, in order (nil: every one a node holds)
	cols  map[string][]int                 // the argument positions rendered, by predicate (absent: all)
	expr  bool                             // each row's condensed expression (CondensedExpr)
	poly  bool                             // each fact's FactPoly, one row per fact whatever its asserters
	view  bool                             // each predicate's published view rows too, with their provenance
	each  func(node string, tu data.Tuple) // a check of every row, before its projection
}

// only is the shape of the named predicates on every node.
func only(preds ...string) shape { return shape{preds: preds} }

// rows renders n as s asks: one "node: tuple[ annotation]\n" line a row
// (a view row reads "node view: tuple provenance\n"), in node,
// predicate and tuple order.
func rows(n *Network, s shape) []string {
	var view *ReadView
	if s.view {
		view = n.Driver().ReadView()
	}
	var out []string
	for _, name := range n.Nodes() {
		if s.node != "" && name != s.node {
			continue
		}
		e := n.Node(name).Engine
		preds := s.preds
		if preds == nil {
			preds = e.Predicates()
		}
		for _, pred := range preds {
			seen := map[string]bool{}
			for _, tu := range e.Tuples(pred) {
				if s.each != nil {
					s.each(name, tu)
				}
				var ann string
				if s.expr {
					ann = " " + n.CondensedExpr(name, tu)
				}
				if s.poly {
					if tu = tu.WithoutAsserter(); seen[tu.Key()] {
						continue
					}
					seen[tu.Key()] = true
					ann = " <" + n.FactPoly(name, tu).String() + ">"
				}
				if cols, ok := s.cols[pred]; ok {
					args := tu.Args
					tu.Args = nil
					for _, c := range cols {
						tu.Args = append(tu.Args, args[c])
					}
				}
				out = append(out, fmt.Sprintf("%s: %s%s\n", name, tu, ann))
			}
			if view != nil {
				for _, row := range view.Rows(name, pred) {
					out = append(out, fmt.Sprintf("%s view: %s %s\n", name, row.Tuple, row.Prov))
				}
			}
		}
	}
	return out
}

// render is rows joined into one comparable string.
func render(n *Network, s shape) string { return strings.Join(rows(n, s), "") }

// diffRows is a newline, then the rows live has and fresh lacks ("+"),
// then those it lacks and fresh has ("-").
func diffRows(live, fresh []string) string {
	diff := "\n"
	for _, r := range live {
		if !slices.Contains(fresh, r) {
			diff += "+" + r
		}
	}
	for _, r := range fresh {
		if !slices.Contains(live, r) {
			diff += "-" + r
		}
	}
	return diff
}

// without returns g less every link from→to that cut names, whatever
// its cost (nil for a nil g).
func without(g *topo.Graph, cut ...topo.Link) *topo.Graph {
	if g == nil {
		return nil
	}
	kept := &topo.Graph{Nodes: g.Nodes}
	for _, l := range g.Links {
		if !slices.ContainsFunc(cut, func(c topo.Link) bool { return c.From == l.From && c.To == l.To }) {
			kept.Links = append(kept.Links, l)
		}
	}
	return kept
}

// mustRun builds cfg's network, with 512-bit keys unless cfg sets a
// size, queues events, and runs it to its fixpoint. It is every fresh
// run the tests compare a network with.
func mustRun(t *testing.T, cfg Config, events ...event) (*Network, *Report) {
	t.Helper()
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 512 // small keys keep unit tests fast
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := ev.apply(n.Driver()); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return n, rep
}

// event is one Driver mutation of a script.
type event struct {
	op     string    // "cut", "set", "inject", "retract" or "advance"
	link   topo.Link // cut and set; a script's set restores a link of the starting graph
	node   string    // inject and retract
	tuples []data.Tuple
	dt     float64 // advance
}

func (ev event) apply(d *Driver) error {
	switch ev.op {
	case "cut":
		return d.CutLink(ev.link.From, ev.link.To)
	case "set":
		return d.SetLink(ev.link.From, ev.link.To, ev.link.Cost)
	case "inject":
		return d.Inject(ev.node, ev.tuples...)
	case "retract":
		return d.Retract(ev.node, ev.tuples...)
	}
	return d.Advance(ev.dt)
}

func (ev event) String() string {
	switch ev.op {
	case "cut", "set":
		return fmt.Sprintf("%s %s→%s (%d)", ev.op, ev.link.From, ev.link.To, ev.link.Cost)
	case "advance":
		return fmt.Sprintf("advance %v", ev.dt)
	}
	return fmt.Sprintf("%s %v at %s", ev.op, ev.tuples, ev.node)
}

// inputs are what a script's network runs on besides its program.
type inputs struct {
	base  *topo.Graph         // the starting graph (nil: none)
	cut   []topo.Link         // its links cut since
	facts map[string]injected // the facts injected and not retracted since, by key
	clock float64
	ttl   map[string]*datalog.MaterializeDecl // the program's lifetimes, by predicate
}

// injected is a fact a script injected, and when.
type injected struct {
	node    string
	tuple   data.Tuple
	created float64
}

// record updates in as the driver applies ev.
func (in *inputs) record(ev event) {
	switch ev.op {
	case "cut":
		in.cut = append(in.cut, ev.link)
	case "set":
		in.cut = slices.DeleteFunc(in.cut, func(l topo.Link) bool { return l.From == ev.link.From && l.To == ev.link.To })
	case "inject":
		for _, tu := range ev.tuples {
			in.facts[tu.Key()] = injected{ev.node, tu, in.clock}
		}
	case "retract":
		for _, tu := range ev.tuples {
			if in.facts[tu.Key()].node == ev.node {
				delete(in.facts, tu.Key())
			}
		}
	case "advance":
		in.clock += ev.dt
	}
}

// graph is the links of the moment.
func (in *inputs) graph() *topo.Graph { return without(in.base, in.cut...) }

// live lists the injected facts that have not expired, in key order.
func (in *inputs) live() []injected {
	var out []injected
	for _, k := range slices.Sorted(maps.Keys(in.facts)) {
		f := in.facts[k]
		if m := in.ttl[f.tuple.Pred]; m == nil || m.TTLSeconds < 0 || in.clock < f.created+m.TTLSeconds {
			out = append(out, f)
		}
	}
	return out
}

// script drives a network through Driver events and, after each step,
// hands check the moment: the live network's rendering beside a fresh
// run's on the inputs of that moment.
type script struct {
	cfg   Config // the live network's; its Graph is where the links start
	shape shape  // what the renderings hold
	pump  bool   // drive a started driver; else each step converges synchronously
	steps int
	// next returns step i's events, queued in one batch (one driver step
	// applies them all); it may read the inputs so far.
	next  func(i int, in *inputs) []event
	check func(m moment)
}

// moment is a script's state after one step.
type moment struct {
	step        int
	what        string // the step's events
	n           *Network
	in          *inputs
	live, fresh []string
}

// run builds the network, awaits its first quiescence, and plays the
// script. Each fresh run starts from the moment's graph, advances to its
// clock, then injects the live facts.
func (s script) run(t *testing.T) {
	t.Helper()
	prog, err := datalog.Parse(s.cfg.Source)
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{base: s.cfg.Graph, facts: map[string]injected{}, ttl: prog.Materialize}
	n, err := NewNetwork(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, ctx := n.Driver(), t.Context()
	if s.pump {
		if err := d.Start(ctx); err != nil {
			t.Fatal(err)
		}
		defer d.Close()
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.steps; i++ {
		evs := s.next(i, in)
		what := fmt.Sprint(evs)
		err := inOneBatch(d, func() error {
			for _, ev := range evs {
				if err := ev.apply(d); err != nil {
					return err
				}
				in.record(ev)
			}
			return nil
		})
		if err == nil {
			_, err = d.AwaitQuiescence(ctx)
		}
		if err != nil {
			t.Fatalf("step %d %s: %v", i, what, err)
		}
		var fresh []event
		if in.clock > 0 {
			fresh = append(fresh, event{op: "advance", dt: in.clock})
		}
		for _, f := range in.live() {
			fresh = append(fresh, event{op: "inject", node: f.node, tuples: []data.Tuple{f.tuple}})
		}
		freshCfg := s.cfg
		freshCfg.Graph = in.graph()
		fn, _ := mustRun(t, freshCfg, fresh...)
		s.check(moment{i, what, n, in, rows(n, s.shape), rows(fn, s.shape)})
	}
}

// inOneBatch queues events while holding the run lock, so the live
// pump takes them all in one step: each step locks runMu before it
// drains the inbox.
func inOneBatch(d *Driver, queue func() error) error {
	d.runMu.Lock()
	defer d.runMu.Unlock()
	return queue()
}

// cutScript plays the cut script on cfg's program over
// RandomConnected{N 8, degree 3, MaxCost 10, seed}: one link a step, it
// cuts the first three links, restores the second, then the rest.
func cutScript(t *testing.T, cfg Config, seed int64, s shape, check func(m moment)) {
	t.Helper()
	cfg.Graph = topo.RandomConnected(topo.Options{N: 8, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
	plan := []struct {
		link int
		cut  bool
	}{{0, true}, {1, true}, {2, true}, {1, false}, {0, false}, {2, false}}
	script{cfg: cfg, shape: s, steps: len(plan), check: check, next: func(i int, _ *inputs) []event {
		ev := event{op: "set", link: cfg.Graph.Links[plan[i].link]}
		if plan[i].cut {
			ev.op = "cut"
		}
		return []event{ev}
	}}.run(t)
}
