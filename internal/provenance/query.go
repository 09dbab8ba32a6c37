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
	q := querier{res: res, opts: opts, stats: st, visitedNodes: map[string]bool{}, seen: map[pathKey]bool{}}
	tree := q.walk(start, key, 0)
	if tree == nil {
		return nil, st, fmt.Errorf("provenance: no entry for key at node %s", start)
	}
	st.NodesVisited = len(q.visitedNodes)
	return tree, st, nil
}

// pathKey is one (node, key) pair of the walk's current path.
type pathKey struct{ node, key string }

type querier struct {
	res          Resolver
	opts         QueryOpts
	stats        *QueryStats
	visitedNodes map[string]bool
	// seen guards against cyclic derivations: the (node, key) pairs on
	// the current path.
	seen map[pathKey]bool
	// buf is the scratch encoding of a remote subtree, metered into
	// QueryStats.Bytes.
	buf []byte
	// The tree's nodes, derivations and pointer slices are carved from
	// per-query chunks (carve) instead of allocated one by one.
	trees    []Tree
	derivs   []Deriv
	derivPtr []*Deriv
	childPtr []*Tree
}

// carve hands out the next n elements of *chunk, exactly sized (nil for
// n == 0), refilling the chunk with at least 32 when it runs short. No
// element is handed out twice, so a carved slice outlives the query.
func carve[T any](chunk *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if len(*chunk) < n {
		*chunk = make([]T, max(n, 32))
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return s
}

func (q *querier) newTree(tu data.Tuple) *Tree {
	t := &carve(&q.trees, 1)[0]
	t.Tuple = tu
	return t
}

func (q *querier) newDeriv(rule, loc string, children int) *Deriv {
	d := &carve(&q.derivs, 1)[0]
	d.Rule, d.Loc, d.Children = rule, loc, carve(&q.childPtr, children)
	return d
}

// walk reconstructs the subtree of key at node, or returns nil when node
// holds no entry for key.
func (q *querier) walk(node, key string, depth int) *Tree {
	q.visitedNodes[node] = true
	s := q.res.StoreOf(node)
	if s == nil {
		return nil
	}
	e, ok := s.read(key, q.opts.Offline)
	if !ok {
		return nil
	}
	derivs, origins := e.Derivs, e.Origins
	q.stats.Entries++
	t := q.newTree(e.Tuple)
	pk := pathKey{node, key}
	if depth >= q.opts.MaxDepth || q.seen[pk] {
		t.Truncated = true
		return t
	}
	// Branches are the local derivations, then the origin pointers.
	first, n := 0, len(derivs)+len(origins)
	if n == 0 {
		return t // base tuple
	}
	if q.opts.Moonwalk {
		first, n = q.opts.Rng.Intn(n), 1
	}
	q.seen[pk] = true
	defer delete(q.seen, pk)
	t.Derivs = carve(&q.derivPtr, n)[:0]
	for b := first; b < first+n; b++ {
		if b >= len(derivs) {
			// Follow the origin pointer to the node that shipped the tuple.
			sub := q.follow(node, origins[b-len(derivs)], depth+1)
			if !hasRecv(t.Derivs, node, sub) {
				d := q.newDeriv(recvRule, node, 1)
				d.Children[0] = sub
				t.Derivs = append(t.Derivs, d)
			}
			continue
		}
		children := derivs[b].Children
		if q.opts.Moonwalk && len(children) > 1 {
			children = children[q.opts.Rng.Intn(len(children)):][:1]
		}
		d := q.newDeriv(derivs[b].Rule, derivs[b].Loc, len(children))
		for i, c := range children {
			d.Children[i] = q.follow(node, c, depth+1)
		}
		t.Derivs = append(t.Derivs, d)
	}
	return t
}

// recvRule names the derivation a traceback adds for a tuple another
// node shipped.
const recvRule = "@recv"

// hasRecv reports whether derivs already hold an @recv derivation at
// node over sub: Merge's union rule (derivSig), checked against the only
// derivations whose signature can match.
func hasRecv(derivs []*Deriv, node string, sub *Tree) bool {
	sig := ""
	for _, d := range derivs {
		if d.Rule != recvRule || d.Loc != node {
			continue
		}
		if sig == "" {
			sig = derivSig(recvRule, node, []*Tree{sub})
		}
		if derivSig(d.Rule, d.Loc, d.Children) == sig {
			return true
		}
	}
	return false
}

// follow resolves a child reference, charging a message and the
// subtree's encoded size when it crosses to another node.
func (q *querier) follow(from string, ref Ref, depth int) *Tree {
	remote := ref.Node != from
	if remote {
		q.stats.Messages++
	}
	sub := q.walk(ref.Node, ref.Key, depth)
	if sub == nil {
		// A missing remote entry (sampled out, or aged out of the offline
		// store) becomes a truncated leaf rather than failing the whole
		// query: partial provenance is still useful for forensics.
		sub = q.newTree(stubTuple(ref))
		sub.Truncated = true
		return sub
	}
	if remote {
		if q.buf == nil {
			q.buf = make([]byte, 0, 1024) // a typical subtree, without regrowth
		}
		q.buf = sub.appendTo(q.buf[:0])
		q.stats.Bytes += int64(len(q.buf))
	}
	return sub
}

// stubTuple stands in for an unresolvable reference.
func stubTuple(ref Ref) data.Tuple {
	return data.Tuple{Pred: "unknown", Args: []data.Value{data.Str(ref.Node)}}
}
