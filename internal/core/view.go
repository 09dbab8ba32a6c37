package core

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"provnet/internal/data"
	"provnet/internal/provenance"
)

// ReadView is an immutable copy-on-write snapshot of every hosted node's
// live tables (and, under ModeCondensed, their provenance expressions),
// published by the Driver at quiescence points. Readers — the HTTP query
// API above all — serve from the latest view with no locks at all:
// thousands of concurrent queries never touch the evaluation lock, and a
// query that overlaps live churn sees either the pre-churn or the
// post-churn snapshot, never a torn mix.
//
// Consecutive views share structure: a publish costs O(changed rows +
// rows of the tables they are in), not O(state) — see buildView. Nothing
// reachable from a published view is ever written again.
//
// Seq increments only when table content actually changed since the
// previous view (content-identical republishes keep their Seq), so a
// (Seq, body) pair identifies a consistent snapshot byte-for-byte.
type ReadView struct {
	// Seq is the snapshot generation (0 = empty pre-convergence view).
	Seq uint64
	// Clock is the network's logical time when the view was built.
	Clock float64

	nodes map[string]*NodeView
	// gen is the mutation generation the view was built at (internal
	// change detection for Seq stability).
	gen uint64
}

// NodeView is one node's slice of a ReadView.
type NodeView struct {
	tables map[string][]ViewRow // predicate → sorted rows
}

// ViewRow is one fact in a view, with its condensed provenance
// expression ("" outside ModeCondensed).
type ViewRow struct {
	Tuple data.Tuple
	Prov  string
}

// Nodes returns the hosted node names, sorted.
func (v *ReadView) Nodes() []string {
	out := make([]string, 0, len(v.nodes))
	for name := range v.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Predicates returns the predicates with live rows at a node, sorted.
func (v *ReadView) Predicates(node string) []string {
	nv := v.nodes[node]
	if nv == nil {
		return nil
	}
	out := make([]string, 0, len(nv.tables))
	for pred := range nv.tables {
		out = append(out, pred)
	}
	sort.Strings(out)
	return out
}

// Rows returns a node's rows for a predicate, sorted by tuple order. The
// returned slice is shared with the immutable view: callers must not
// mutate it.
func (v *ReadView) Rows(node, pred string) []ViewRow {
	nv := v.nodes[node]
	if nv == nil {
		return nil
	}
	return nv.tables[pred]
}

// HasNode reports whether the view covers a node.
func (v *ReadView) HasNode(node string) bool { return v.nodes[node] != nil }

// Dump renders the whole view as sorted "node\ttuple\tprov" lines — the
// shape StoreState.LiveDump produces, compared verbatim by the storelog
// determinism pin.
func (v *ReadView) Dump() string {
	var lines []string
	for name, nv := range v.nodes { //provlint:allow mapiter collected lines are sorted before joining
		for _, rows := range nv.tables { //provlint:allow mapiter collected lines are sorted before joining
			for _, r := range rows {
				lines = append(lines, name+"\t"+r.Tuple.String()+"\t"+r.Prov)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// tableDirt is what one node's engine reported about one table since the
// last published view: the changed tuples in notification order
// (duplicates included), or — once the list outgrew limit, or a
// soft-state sweep hit the table — only the fact that the table must be
// rebuilt whole.
type tableDirt struct {
	tuples  []data.Tuple
	limit   int
	rebuild bool
}

// dirtLimit is how many change notifications a table of n rows collects
// before patching stops paying and the table is rebuilt instead: half
// the table (a notification costs a probe and a binary search, a rebuilt
// row a probe and a share of the sort), with slack so that small tables
// are not rebuilt over a handful of changes.
func dirtLimit(n int) int { return n/2 + 32 }

// markViewDirty records a change to t's row for the next view. Called by
// onEngineUpdate on the node's scheduler task, only once a first view
// exists.
func (nd *Node) markViewDirty(t data.Tuple, expired bool) {
	td := nd.dirt[t.Pred]
	if td == nil {
		if nd.dirt == nil {
			nd.dirt = make(map[string]*tableDirt)
		}
		td = &tableDirt{limit: dirtLimit(len(nd.view.tables[t.Pred]))}
		nd.dirt[t.Pred] = td
	}
	nd.touched = true
	switch {
	case td.rebuild:
	case expired || len(td.tuples) >= td.limit:
		// An expiry sweep takes out most of a soft-state table at once.
		td.rebuild = true
		clear(td.tuples)
		td.tuples = td.tuples[:0]
	default:
		td.tuples = append(td.tuples, t)
	}
}

// buildView snapshots the hosted engines' live tables as the successor
// of prev, sharing with it everything that did not change: the NodeView
// of a node no engine update touched, and within a touched node the rows
// of every table without dirt. A dirty table is patched (patchRows) or,
// where patching cannot be trusted or would not pay, rebuilt from the
// engine (tableRows): before the node has a previous view, and when the
// dirt overflowed or an expiry sweep (or a size bound's eviction, which
// the engine reports as an expiry) hit the table. Callers must hold
// the driver's evaluation lock (runMu) so no engine mutates concurrently;
// the dirt is left in place for viewPublished to clear, so building
// against an empty prev is a side-effect-free full rebuild.
func (n *Network) buildView(prev *ReadView, seq, gen uint64) *ReadView {
	v := &ReadView{Seq: seq, Clock: n.Clock(), gen: gen, nodes: make(map[string]*NodeView, len(n.order))}
	var rebuilt, shared int // rows rendered, tables reused
	for _, name := range n.order {
		nd := n.nodes[name]
		pnv := prev.nodes[name]
		switch {
		case pnv == nil:
			nv := &NodeView{tables: make(map[string][]ViewRow)}
			for _, pred := range nd.Engine.Predicates() {
				rows := n.tableRows(nd, pred)
				nv.tables[pred] = rows
				rebuilt += len(rows)
			}
			v.nodes[name] = nv
		case !nd.touched:
			v.nodes[name] = pnv
			shared += len(pnv.tables)
		default:
			nv, fresh, replaced := n.patchNode(nd, pnv)
			v.nodes[name] = nv
			rebuilt += fresh
			shared += len(pnv.tables) - replaced
		}
	}
	if n.nm != nil {
		n.nm.viewRebuilt.Add(int64(rebuilt))
		n.nm.viewShared.Add(int64(shared))
	}
	return v
}

// patchNode builds a touched node's NodeView from its previous one: the
// dirty tables patched or rebuilt, the others shared. It reports the
// rows it rendered and how many of the previous tables it replaced.
func (n *Network) patchNode(nd *Node, pnv *NodeView) (nv *NodeView, fresh, replaced int) {
	nv = &NodeView{tables: maps.Clone(pnv.tables)}
	for pred, td := range nd.dirt { //provlint:allow mapiter each table is patched on its own and stored under its name; order cannot escape
		if !td.rebuild && len(td.tuples) == 0 {
			continue
		}
		prevRows, had := pnv.tables[pred]
		if had {
			replaced++
		}
		var rows []ViewRow
		if td.rebuild {
			rows = n.tableRows(nd, pred)
			fresh += len(rows)
		} else {
			var rendered int
			rows, rendered = n.patchRows(nd, prevRows, td.tuples)
			fresh += rendered
		}
		if len(rows) == 0 {
			delete(nv.tables, pred) // as Engine.Predicates omits it
		} else {
			nv.tables[pred] = rows
		}
	}
	return nv, fresh, replaced
}

// viewPublished makes v the view the next one is patched from: every
// node remembers its slice of it (which is what turns change tracking
// on) and the dirt v absorbed is cleared, its buffers kept.
func (n *Network) viewPublished(v *ReadView) {
	for _, name := range n.order {
		nd := n.nodes[name]
		nd.view = v.nodes[name]
		if !nd.touched {
			continue
		}
		nd.touched = false
		for pred, td := range nd.dirt { //provlint:allow mapiter independent per-table resets; order cannot escape
			clear(td.tuples)
			td.tuples, td.rebuild = td.tuples[:0], false
			td.limit = dirtLimit(len(nd.view.tables[pred]))
		}
	}
}

// tableRows renders one table from the engine: every live row, sorted.
func (n *Network) tableRows(nd *Node, pred string) []ViewRow {
	condensed := n.cfg.Prov == provenance.ModeCondensed
	tuples := nd.Engine.Tuples(pred) // sorted
	rows := make([]ViewRow, len(tuples))
	for i, tu := range tuples {
		rows[i].Tuple = tu
		if condensed {
			rows[i].Prov = nd.Tracker.ExprOf(nd.Engine.AnnotationOf(tu))
		}
	}
	return rows
}

// patchRows merges a table's dirty tuples into its previous sorted rows:
// for each distinct dirty tuple the stale row goes out and, if the engine
// still holds it live, a fresh one comes in — one engine probe and one
// provenance rendering per changed row, none for the others. It sorts
// and compacts dirty in place and reports how many rows it rendered.
func (n *Network) patchRows(nd *Node, prev []ViewRow, dirty []data.Tuple) ([]ViewRow, int) {
	condensed := n.cfg.Prov == provenance.ModeCondensed
	data.SortTuples(dirty)
	dirty = slices.CompactFunc(dirty, func(a, b data.Tuple) bool { return data.CompareTuples(a, b) == 0 })
	rows := make([]ViewRow, 0, len(prev)+len(dirty))
	fresh := 0
	for _, d := range dirty {
		at, found := slices.BinarySearchFunc(prev, d, func(r ViewRow, d data.Tuple) int { return data.CompareTuples(r.Tuple, d) })
		rows = append(rows, prev[:at]...)
		prev = prev[at:]
		if found {
			prev = prev[1:]
		}
		// OnUpdate reports stored tuples, so a live row whose stored form
		// differs from d (Int 2 re-added as Float 2.0) is in dirty under
		// that form and comes in there.
		stored, ann, live := nd.Engine.Lookup(d)
		if !live || data.CompareTuples(stored, d) != 0 {
			continue
		}
		row := ViewRow{Tuple: stored}
		if condensed {
			row.Prov = nd.Tracker.ExprOf(ann)
		}
		rows = append(rows, row)
		fresh++
	}
	return append(rows, prev...), fresh
}
