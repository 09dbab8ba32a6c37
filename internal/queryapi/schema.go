// Package queryapi is the provenance-as-a-service front-end: a versioned
// JSON schema for query results and an HTTP server mounted on a
// Network's Driver serving traceback, best-path, table, and subscription
// queries in it (cmd/provnet -http; see docs/API.md).
//
// Reads are snapshot-isolated: table and best-path queries serve from the
// Driver's copy-on-write ReadView, published at quiescence points, so
// thousands of concurrent queries never take the evaluation lock and a
// query overlapping live churn sees either the pre-churn or post-churn
// snapshot — never a torn mix. See docs/API.md.
package queryapi

import (
	"provnet/internal/core"
	"provnet/internal/provenance"
)

// SchemaVersion is the "v" field of every QueryResult. Consumers must
// reject versions they do not understand; fields are only ever added
// within a version.
const SchemaVersion = 1

// QueryResult is the versioned envelope of every query response, JSON or
// HTTP. Exactly one of Tables, Paths, or Traceback/Condensed is set,
// matching Kind; Error is set instead when the query failed.
type QueryResult struct {
	// V is SchemaVersion.
	V int `json:"v"`
	// Kind is "tables", "bestpath", or "traceback".
	Kind string `json:"kind"`
	// Node and Tuple echo the query target, when it has one.
	Node  string `json:"node,omitempty"`
	Tuple string `json:"tuple,omitempty"`
	// Snapshot and Clock identify the ReadView the result was served
	// from: Snapshot is the view sequence number (0 = before the first
	// convergence), Clock the network's logical time at the snapshot.
	Snapshot uint64  `json:"snapshot"`
	Clock    float64 `json:"clock"`

	Tables    []TableResult  `json:"tables,omitempty"`
	Paths     []BestPath     `json:"paths,omitempty"`
	Traceback *TracebackNode `json:"traceback,omitempty"`
	// Condensed is the <...> provenance expression of the target tuple
	// (ModeCondensed networks, which keep no derivation trees).
	Condensed string `json:"condensed,omitempty"`
	// Stats meters a distributed traceback's cost.
	Stats *TraceStats `json:"stats,omitempty"`

	Error string `json:"error,omitempty"`
}

// TableResult is one node's rows for one predicate.
type TableResult struct {
	Node string `json:"node"`
	Pred string `json:"pred"`
	Rows []Row  `json:"rows"`
}

// Row is one stored fact, with its condensed provenance expression when
// the network runs ModeCondensed.
type Row struct {
	Tuple string `json:"tuple"`
	Prov  string `json:"prov,omitempty"`
}

// BestPath is one bestPath(@S,D,P,C) fact, decoded.
type BestPath struct {
	From string   `json:"from"`
	Dest string   `json:"dest"`
	Path []string `json:"path"`
	Cost int64    `json:"cost"`
}

// TracebackNode is the JSON form of a provenance derivation tree
// (provenance.Tree): the tuple, its alternative derivations, and the
// truncation marker for nodes cut off by depth limits or cycles.
type TracebackNode struct {
	Tuple     string           `json:"tuple"`
	Truncated bool             `json:"truncated,omitempty"`
	Derivs    []TracebackDeriv `json:"derivs,omitempty"`
}

// TracebackDeriv is one derivation step: a rule fired at a location over
// child tuples.
type TracebackDeriv struct {
	Rule     string           `json:"rule"`
	Loc      string           `json:"loc"`
	Children []*TracebackNode `json:"children,omitempty"`
}

// TraceStats mirrors provenance.QueryStats.
type TraceStats struct {
	Messages     int   `json:"messages"`
	Bytes        int64 `json:"bytes"`
	NodesVisited int   `json:"nodesVisited"`
	Entries      int   `json:"entries"`
}

// FromTree converts a derivation tree to its JSON schema form, laid out
// from one counted pass over the tree: every node in one slice, every
// derivation in a second, every child pointer in a third, and every
// node's tuple text sliced out of one string.
func FromTree(t *provenance.Tree) *TracebackNode {
	var sc treeText
	return sc.fromTree(t)
}

// treeText is a tree's tuple texts rendered back to back in preorder,
// each node's end offset, and the tree's derivation and child counts.
// The query server keeps one per reply encoder, so a traceback reply
// renders into buffers kept from earlier ones.
type treeText struct {
	buf              []byte
	ends             []int
	derivs, children int
}

// fromTree is FromTree rendering into sc's buffers; what it returns
// shares no memory with them.
func (sc *treeText) fromTree(t *provenance.Tree) *TracebackNode {
	if t == nil {
		return nil
	}
	sc.buf, sc.ends, sc.derivs, sc.children = sc.buf[:0], sc.ends[:0], 0, 0
	sc.render(t)
	l := treeLayout{
		nodes:    make([]TracebackNode, len(sc.ends)),
		derivs:   make([]TracebackDeriv, sc.derivs),
		children: make([]*TracebackNode, sc.children),
		text:     string(sc.buf),
		ends:     sc.ends,
	}
	return l.node(t)
}

func (sc *treeText) render(t *provenance.Tree) {
	sc.buf = t.Tuple.AppendText(sc.buf)
	sc.ends = append(sc.ends, len(sc.buf))
	sc.derivs += len(t.Derivs)
	for _, d := range t.Derivs {
		sc.children += len(d.Children)
		for _, c := range d.Children {
			sc.render(c)
		}
	}
}

// treeLayout hands out a reply's nodes, derivations and child pointers
// in the preorder treeText rendered the tuples in.
type treeLayout struct {
	nodes    []TracebackNode
	derivs   []TracebackDeriv
	children []*TracebackNode
	text     string
	ends     []int
	start    int // text offset of the next node's tuple
}

func (l *treeLayout) node(t *provenance.Tree) *TracebackNode {
	n := &l.nodes[0]
	l.nodes = l.nodes[1:]
	n.Tuple, n.Truncated = l.text[l.start:l.ends[0]], t.Truncated
	l.start, l.ends = l.ends[0], l.ends[1:]
	if len(t.Derivs) == 0 {
		return n
	}
	n.Derivs, l.derivs = l.derivs[:len(t.Derivs):len(t.Derivs)], l.derivs[len(t.Derivs):]
	for i, d := range t.Derivs {
		jd := &n.Derivs[i]
		jd.Rule, jd.Loc = d.Rule, d.Loc
		if len(d.Children) > 0 {
			jd.Children, l.children = l.children[:len(d.Children):len(d.Children)], l.children[len(d.Children):]
		}
		for j, c := range d.Children {
			jd.Children[j] = l.node(c)
		}
	}
	return n
}

// FromStats converts traceback query stats to their schema form.
func FromStats(s *provenance.QueryStats) *TraceStats {
	if s == nil {
		return nil
	}
	return &TraceStats{Messages: s.Messages, Bytes: s.Bytes, NodesVisited: s.NodesVisited, Entries: s.Entries}
}

// decodeBestPath parses one bestPath(@S,D,P,C) view row.
func decodeBestPath(r core.ViewRow) (BestPath, bool) {
	args := r.Tuple.Args
	if r.Tuple.Pred != "bestPath" || len(args) != 4 {
		return BestPath{}, false
	}
	bp := BestPath{From: args[0].Str, Dest: args[1].Str, Cost: args[3].Int}
	for _, v := range args[2].List {
		bp.Path = append(bp.Path, v.Str)
	}
	return bp, true
}
