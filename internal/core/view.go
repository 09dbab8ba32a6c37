package core

import (
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

	// names are the hosted nodes, sorted, shared by every view of the
	// network; nodes holds their slices of the view, in the same order.
	names []string
	nodes []NodeView
	// gen is the mutation generation the view was built at (internal
	// change detection for Seq stability).
	gen uint64
}

// NodeView is one node's slice of a ReadView: its tables with live rows,
// sorted by predicate.
type NodeView struct {
	tables []viewTable
}

// viewTable is one predicate's rows in a NodeView, sorted by tuple order.
type viewTable struct {
	pred string
	rows []ViewRow
}

// ViewRow is one fact in a view, with its condensed provenance
// expression ("" outside ModeCondensed).
type ViewRow struct {
	Tuple data.Tuple
	Prov  string
}

// node returns a node's slice of the view, or nil.
func (v *ReadView) node(name string) *NodeView {
	i, found := slices.BinarySearch(v.names, name)
	if !found {
		return nil
	}
	return &v.nodes[i]
}

// rows returns pred's rows, or nil when the node has none.
func (nv *NodeView) rows(pred string) []ViewRow {
	i, found := slices.BinarySearchFunc(nv.tables, pred, func(t viewTable, pred string) int { return strings.Compare(t.pred, pred) })
	if !found {
		return nil
	}
	return nv.tables[i].rows
}

// Nodes returns the hosted node names, sorted.
func (v *ReadView) Nodes() []string { return slices.Clone(v.names) }

// Predicates returns the predicates with live rows at a node, sorted.
func (v *ReadView) Predicates(node string) []string {
	nv := v.node(node)
	if nv == nil {
		return nil
	}
	out := make([]string, len(nv.tables))
	for i, t := range nv.tables {
		out[i] = t.pred
	}
	return out
}

// Rows returns a node's rows for a predicate, sorted by tuple order. The
// returned slice is shared with the immutable view: callers must not
// mutate it.
func (v *ReadView) Rows(node, pred string) []ViewRow {
	nv := v.node(node)
	if nv == nil {
		return nil
	}
	return nv.rows(pred)
}

// HasNode reports whether the view covers a node.
func (v *ReadView) HasNode(node string) bool { return v.node(node) != nil }

// Dump renders the whole view as sorted "node\ttuple\tprov" lines — the
// shape StoreState.LiveDump produces, compared verbatim by the storelog
// determinism pin.
func (v *ReadView) Dump() string {
	var lines []string
	for i, name := range v.names {
		for _, t := range v.nodes[i].tables {
			for _, r := range t.rows {
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
	pred    string
	tuples  []data.Tuple
	limit   int
	rebuild bool
	// moves is the table's Engine.Moves when the view last read it. A
	// patch keeps the rows it does not change, so a table that moved its
	// storage since is rebuilt instead: the view would keep the old
	// storage alive.
	moves int
}

// dirty reports whether the table changed since the last published view.
func (td *tableDirt) dirty() bool { return td.rebuild || len(td.tuples) > 0 }

// whole reports whether the table is rendered whole rather than patched.
func (td *tableDirt) whole(nd *Node) bool {
	return td.rebuild || td.moves != nd.Engine.Moves(td.pred)
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
	i, found := slices.BinarySearchFunc(nd.dirt, t.Pred, func(td tableDirt, pred string) int { return strings.Compare(td.pred, pred) })
	if !found {
		nd.dirt = slices.Insert(nd.dirt, i, tableDirt{pred: t.Pred, limit: dirtLimit(len(nd.view.rows(t.Pred)))})
	}
	td := &nd.dirt[i]
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
//
// A view allocates its node list, and a node built or patched anew its
// table list and one arena its tables' rows are carved from, each
// capacity-limited so no table can grow into the next one's rows.
func (n *Network) buildView(prev *ReadView, seq, gen uint64) *ReadView {
	// The hosted nodes never change, so a view with as many as the
	// network has has the same ones.
	names := prev.names
	if len(names) != len(n.order) {
		names = slices.Sorted(slices.Values(n.order))
	}
	v := &ReadView{Seq: seq, Clock: n.Clock(), gen: gen, names: names, nodes: make([]NodeView, len(names))}
	patch := len(prev.nodes) == len(names)
	var rebuilt, shared int // rows rendered, tables reused
	for i, name := range names {
		nd := n.nodes[name]
		switch {
		case !patch:
			v.nodes[i] = n.nodeView(nd)
			for _, t := range v.nodes[i].tables {
				rebuilt += len(t.rows)
			}
		case !nd.touched:
			v.nodes[i] = prev.nodes[i]
			shared += len(prev.nodes[i].tables)
		default:
			var fresh, replaced int
			v.nodes[i], fresh, replaced = n.patchNode(nd, prev.nodes[i])
			rebuilt += fresh
			shared += len(prev.nodes[i].tables) - replaced
		}
	}
	if n.nm != nil {
		n.nm.viewRebuilt.Add(int64(rebuilt))
		n.nm.viewShared.Add(int64(shared))
	}
	return v
}

// nodeView renders a node's first NodeView from its engine, every table
// with live rows.
func (n *Network) nodeView(nd *Node) NodeView {
	preds := nd.Engine.Predicates()
	size := 0
	for _, pred := range preds {
		size += nd.Engine.Count(pred)
	}
	tables := make([]viewTable, len(preds))
	arena := make([]ViewRow, 0, size)
	for i, pred := range preds {
		lo := len(arena)
		arena = n.tableRows(nd, pred, arena)
		tables[i] = viewTable{pred: pred, rows: arena[lo:len(arena):len(arena)]}
	}
	return NodeView{tables: tables}
}

// patchNode builds a touched node's NodeView from its previous one: the
// dirty tables patched or rebuilt, the others shared. It reports the
// rows it rendered and how many of the previous tables it replaced.
func (n *Network) patchNode(nd *Node, pnv NodeView) (nv NodeView, fresh, replaced int) {
	size, added := 0, 0
	for i := range nd.dirt {
		td := &nd.dirt[i]
		if !td.dirty() {
			continue
		}
		prev := pnv.rows(td.pred)
		if prev == nil {
			added++
		}
		if td.whole(nd) {
			size += nd.Engine.Count(td.pred)
		} else {
			size += len(prev) + len(td.tuples)
		}
	}
	tables := make([]viewTable, 0, len(pnv.tables)+added)
	arena := make([]ViewRow, 0, size)
	next := 0 // pnv.tables before next are in tables or replaced
	for i := range nd.dirt {
		td := &nd.dirt[i]
		if !td.dirty() {
			continue
		}
		for next < len(pnv.tables) && pnv.tables[next].pred < td.pred {
			tables = append(tables, pnv.tables[next])
			next++
		}
		var prevRows []ViewRow
		if next < len(pnv.tables) && pnv.tables[next].pred == td.pred {
			prevRows = pnv.tables[next].rows
			next++
			replaced++
		}
		lo := len(arena)
		if td.whole(nd) {
			arena = n.tableRows(nd, td.pred, arena)
			fresh += len(arena) - lo
		} else {
			var rendered int
			arena, rendered = n.patchRows(nd, prevRows, td.tuples, arena)
			fresh += rendered
		}
		if hi := len(arena); hi > lo { // an emptied table goes, as Engine.Predicates omits it
			tables = append(tables, viewTable{pred: td.pred, rows: arena[lo:hi:hi]})
		}
	}
	tables = append(tables, pnv.tables[next:]...)
	return NodeView{tables: tables}, fresh, replaced
}

// viewPublished makes v the view the next one is patched from: every
// node remembers its slice of it (which is what turns change tracking
// on) and the dirt v absorbed is cleared, its buffers kept.
func (n *Network) viewPublished(v *ReadView) {
	for i, name := range v.names {
		nd := n.nodes[name]
		nd.view = &v.nodes[i]
		if !nd.touched {
			continue
		}
		nd.touched = false
		for j := range nd.dirt {
			td := &nd.dirt[j]
			if td.dirty() {
				td.moves = nd.Engine.Moves(td.pred)
			}
			clear(td.tuples)
			td.tuples, td.rebuild = td.tuples[:0], false
			td.limit = dirtLimit(len(nd.view.rows(td.pred)))
		}
	}
}

// tableRows appends one table rendered from the engine to rows: every
// live row, sorted.
func (n *Network) tableRows(nd *Node, pred string, rows []ViewRow) []ViewRow {
	condensed := n.cfg.Prov == provenance.ModeCondensed
	for _, tu := range nd.Engine.Tuples(pred) { // sorted
		row := ViewRow{Tuple: tu}
		if condensed {
			row.Prov = nd.Tracker.ExprOf(nd.Engine.AnnotationOf(tu))
		}
		rows = append(rows, row)
	}
	return rows
}

// patchRows merges a table's dirty tuples into its previous sorted rows,
// appending the result to rows: for each distinct dirty tuple the stale
// row goes out and, if the engine still holds it live, a fresh one comes
// in — one engine probe and one provenance rendering per changed row,
// none for the others. It sorts and compacts dirty in place and reports
// how many rows it rendered.
func (n *Network) patchRows(nd *Node, prev []ViewRow, dirty []data.Tuple, rows []ViewRow) ([]ViewRow, int) {
	condensed := n.cfg.Prov == provenance.ModeCondensed
	data.SortTuples(dirty)
	dirty = slices.CompactFunc(dirty, func(a, b data.Tuple) bool { return data.CompareTuples(a, b) == 0 })
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
