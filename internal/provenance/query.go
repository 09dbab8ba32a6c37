package provenance

import (
	"fmt"
	"math/rand"

	"provnet/internal/data"
)

// Distributed provenance querying (§4.1): with ModeDistributed each node
// stores only pointers, and reconstructing a derivation tree walks them —
// a "distributed recursive query" in the paper's terms. Each hop to
// another node is charged as query traffic, which is what makes
// distributed provenance cheap to maintain but expensive to query.

// Resolver gives the traceback query access to per-node stores. The core
// layer implements it over the simulated network.
type Resolver interface {
	StoreOf(node string) *Store
}

// ResolverFunc adapts a function to Resolver.
type ResolverFunc func(node string) *Store

// StoreOf calls f.
func (f ResolverFunc) StoreOf(node string) *Store { return f(node) }

// DefaultMaxDepth is a traceback's recursion bound when QueryOpts leaves
// it 0, and the largest one /v1/traceback accepts.
const DefaultMaxDepth = 64

// QueryOpts configures a traceback.
type QueryOpts struct {
	// MaxDepth bounds recursion (0 = DefaultMaxDepth).
	MaxDepth int
	// Moonwalk samples a single random backward path instead of the full
	// tree (the random-moonwalk optimization of §5).
	Moonwalk bool
	// Rng drives moonwalk choices; required when Moonwalk is set.
	Rng *rand.Rand
	// Offline consults offline stores as a fallback, for forensics over
	// expired state (§4.2).
	Offline bool
}

// QueryStats meters a traceback.
type QueryStats struct {
	// Messages counts inter-node hops (request/response pairs).
	Messages int
	// Bytes estimates response traffic (encoded subtree sizes).
	Bytes int64
	// NodesVisited counts distinct nodes touched.
	NodesVisited int
	// Entries counts provenance entries read.
	Entries int
}

// Trace reconstructs the derivation tree of the tuple with the given key,
// starting at node start, by walking distributed provenance pointers. It
// returns the tree and the query's cost.
func Trace(res Resolver, start, key string, opts QueryOpts) (*Tree, *QueryStats, error) {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	if opts.Moonwalk && opts.Rng == nil {
		return nil, nil, fmt.Errorf("provenance: moonwalk requires an Rng")
	}
	st := &QueryStats{}
	visitedNodes := map[string]bool{}
	q := &querier{res: res, opts: opts, stats: st, visitedNodes: visitedNodes}
	tree, err := q.walk(start, key, map[string]bool{}, 0)
	if err != nil {
		return nil, st, err
	}
	st.NodesVisited = len(visitedNodes)
	return tree, st, nil
}

type querier struct {
	res          Resolver
	opts         QueryOpts
	stats        *QueryStats
	visitedNodes map[string]bool
}

func (q *querier) lookup(node, key string) *Entry {
	q.visitedNodes[node] = true
	s := q.res.StoreOf(node)
	if s == nil {
		return nil
	}
	if q.opts.Offline {
		return s.GetAny(key)
	}
	return s.Get(key)
}

// walk reconstructs the subtree of key at node. seen guards against
// cyclic derivations ((node,key) pairs on the current path).
func (q *querier) walk(node, key string, seen map[string]bool, depth int) (*Tree, error) {
	e := q.lookup(node, key)
	if e == nil {
		return nil, fmt.Errorf("provenance: no entry for key at node %s", node)
	}
	q.stats.Entries++
	t := &Tree{Tuple: e.Tuple}
	pathKey := node + "\x00" + key
	if depth >= q.opts.MaxDepth || seen[pathKey] {
		t.Truncated = true
		return t, nil
	}
	seen[pathKey] = true
	defer delete(seen, pathKey)

	type branch struct {
		deriv *Derivation
		via   *Ref // origin pointer instead of a local derivation
	}
	var branches []branch
	for i := range e.Derivs {
		branches = append(branches, branch{deriv: &e.Derivs[i]})
	}
	for i := range e.Origins {
		branches = append(branches, branch{via: &e.Origins[i]})
	}
	if len(branches) == 0 {
		return t, nil // base tuple
	}
	if q.opts.Moonwalk {
		branches = branches[q.opts.Rng.Intn(len(branches)):][:1]
	}
	for _, br := range branches {
		if br.via != nil {
			// Follow the origin pointer to the node that derived it.
			sub, err := q.follow(node, *br.via, seen, depth+1)
			if err != nil {
				return nil, err
			}
			t.Merge(&Tree{Tuple: e.Tuple, Derivs: []*Deriv{{Rule: "@recv", Loc: node, Children: []*Tree{sub}}}})
			continue
		}
		d := &Deriv{Rule: br.deriv.Rule, Loc: br.deriv.Loc}
		children := br.deriv.Children
		if q.opts.Moonwalk && len(children) > 1 {
			children = children[q.opts.Rng.Intn(len(children)):][:1]
		}
		for _, c := range children {
			sub, err := q.follow(node, c, seen, depth+1)
			if err != nil {
				return nil, err
			}
			d.Children = append(d.Children, sub)
		}
		t.Derivs = append(t.Derivs, d)
	}
	return t, nil
}

// follow resolves a child reference, charging a message when it crosses to
// another node.
func (q *querier) follow(from string, ref Ref, seen map[string]bool, depth int) (*Tree, error) {
	if ref.Node != from {
		q.stats.Messages++
	}
	sub, err := q.walk(ref.Node, ref.Key, seen, depth)
	if err != nil {
		// A missing remote entry (sampled out, or aged out of the offline
		// store) becomes a truncated leaf rather than failing the whole
		// query: partial provenance is still useful for forensics.
		return &Tree{Tuple: stubTuple(ref), Truncated: true}, nil
	}
	if ref.Node != from {
		q.stats.Bytes += int64(len(sub.Marshal()))
	}
	return sub, nil
}

// stubTuple stands in for an unresolvable reference.
func stubTuple(ref Ref) data.Tuple {
	return data.Tuple{Pred: "unknown", Args: []data.Value{data.Str(ref.Node)}}
}
