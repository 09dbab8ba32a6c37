// Package bdd implements reduced ordered binary decision diagrams (ROBDDs).
//
// The paper encodes condensed provenance expressions (provenance-semiring
// polynomials over the principals asserting base tuples) in BDDs using the
// Buddy library; BDD reduction performs the algebraic simplification the
// paper describes — e.g. a + a·b collapses to a by absorption. This package
// is a from-scratch replacement: hash-consed nodes, an ITE operation cache,
// satisfiability counting, cube (DNF) extraction for monotone functions, and
// a table encoding that ships many BDDs at once — the provenance of a
// whole data frame — across the network.
//
// A Manager owns all nodes; Node values are indices into the manager and
// are only meaningful with the manager that produced them. Managers are not
// safe for concurrent use.
package bdd

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Node references a BDD node inside a Manager. The terminals are False (0)
// and True (1).
type Node int32

// Terminal nodes, identical across all managers.
const (
	False Node = 0
	True  Node = 1
)

type nodeData struct {
	level  int32 // variable order position; terminals use maxLevel
	lo, hi Node
}

const maxLevel = int32(1<<31 - 1)

type tripleKey struct {
	a, b, c int32
}

// Manager owns a shared node store for a family of BDDs. Nodes are
// hash-consed: structurally identical subgraphs are represented once, so
// equality of boolean functions is pointer (Node) equality.
type Manager struct {
	nodes    []nodeData
	unique   map[tripleKey]Node
	iteCache map[tripleKey]Node

	varNames []string
	varIdx   map[string]int32

	cube cubeScratch
	tab  tableScratch
	dec  decodeScratch
}

// New returns an empty manager with no variables registered.
func New() *Manager {
	m := &Manager{
		unique:   make(map[tripleKey]Node),
		iteCache: make(map[tripleKey]Node),
		varIdx:   make(map[string]int32),
	}
	// nodes[0] = False, nodes[1] = True.
	m.nodes = append(m.nodes, nodeData{level: maxLevel}, nodeData{level: maxLevel})
	return m
}

// NumNodes returns the total number of allocated nodes including terminals.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// varLevel registers name if new and returns its order position.
func (m *Manager) varLevel(name string) int32 {
	if lv, ok := m.varIdx[name]; ok {
		return lv
	}
	lv := int32(len(m.varNames))
	m.varNames = append(m.varNames, name)
	m.varIdx[name] = lv
	return lv
}

// Var returns the BDD for the variable name, registering it (appending to
// the variable order) on first use.
func (m *Manager) Var(name string) Node {
	lv := m.varLevel(name)
	return m.mk(lv, False, True)
}

// DeclareOrder registers variables in the given order. Variables already
// registered keep their position.
func (m *Manager) DeclareOrder(names ...string) {
	for _, n := range names {
		m.varLevel(n)
	}
}

// mk returns the canonical node for (level, lo, hi), applying the ROBDD
// reduction rules.
func (m *Manager) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	k := tripleKey{level, int32(lo), int32(hi)}
	if n, ok := m.unique[k]; ok {
		return n
	}
	n := Node(len(m.nodes))
	m.nodes = append(m.nodes, nodeData{level: level, lo: lo, hi: hi})
	m.unique[k] = n
	return n
}

func (m *Manager) level(n Node) int32 { return m.nodes[n].level }

// ITE computes if-then-else: f·g + ¬f·h. It is the core operation all
// binary connectives are built from.
func (m *Manager) ITE(f, g, h Node) Node {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := tripleKey{int32(f), int32(g), int32(h)}
	if r, ok := m.iteCache[key]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r := m.mk(top, m.ITE(f0, g0, h0), m.ITE(f1, g1, h1))
	m.iteCache[key] = r
	return r
}

// cofactors returns the negative and positive cofactors of n with respect
// to the variable at the given level.
func (m *Manager) cofactors(n Node, level int32) (lo, hi Node) {
	d := m.nodes[n]
	if d.level != level {
		return n, n
	}
	return d.lo, d.hi
}

// And returns the conjunction of its arguments (True for no arguments).
func (m *Manager) And(ns ...Node) Node {
	r := True
	for _, n := range ns {
		r = m.ITE(r, n, False)
		if r == False {
			return False
		}
	}
	return r
}

// Or returns the disjunction of its arguments (False for no arguments).
func (m *Manager) Or(ns ...Node) Node {
	r := False
	for _, n := range ns {
		r = m.ITE(n, True, r)
		if r == True {
			return True
		}
	}
	return r
}

// Not returns the complement of n.
func (m *Manager) Not(n Node) Node { return m.ITE(n, False, True) }

// Eval evaluates n under the assignment (missing variables are false).
func (m *Manager) Eval(n Node, assign map[string]bool) bool {
	for n != True && n != False {
		d := m.nodes[n]
		if assign[m.varNames[d.level]] {
			n = d.hi
		} else {
			n = d.lo
		}
	}
	return n == True
}

// Restrict fixes variable name to val in n.
func (m *Manager) Restrict(n Node, name string, val bool) Node {
	lv, ok := m.varIdx[name]
	if !ok {
		return n
	}
	memo := make(map[Node]Node)
	var rec func(Node) Node
	rec = func(x Node) Node {
		if x == True || x == False {
			return x
		}
		d := m.nodes[x]
		if d.level > lv {
			return x
		}
		if r, ok := memo[x]; ok {
			return r
		}
		var r Node
		if d.level == lv {
			if val {
				r = d.hi
			} else {
				r = d.lo
			}
		} else {
			r = m.mk(d.level, rec(d.lo), rec(d.hi))
		}
		memo[x] = r
		return r
	}
	return rec(n)
}

// Support returns the sorted names of variables n depends on.
func (m *Manager) Support(n Node) []string {
	seen := make(map[int32]bool)
	visited := make(map[Node]bool)
	var rec func(Node)
	rec = func(x Node) {
		if x == True || x == False || visited[x] {
			return
		}
		visited[x] = true
		d := m.nodes[x]
		seen[d.level] = true
		rec(d.lo)
		rec(d.hi)
	}
	rec(n)
	out := make([]string, 0, len(seen))
	for lv := range seen {
		out = append(out, m.varNames[lv])
	}
	sort.Strings(out)
	return out
}

// Cubes returns the DNF of n as a list of cubes; each cube lists the
// variables taken positively along a path from the root to True. Variables
// absent from a cube are don't-cares on that path; for the monotone
// functions produced by provenance polynomials (no negation), this is a
// disjunction of conjunctions of positive literals, and BDD reduction has
// already applied absorption (a + a·b = a yields the single cube {a}).
// Cubes are sorted and deduplicated for deterministic output.
func (m *Manager) Cubes(n Node) [][]string {
	cubes := m.walkCubes(n)
	out := make([][]string, len(cubes))
	for i, c := range cubes {
		out[i] = make([]string, len(c))
		for k, lv := range c {
			out[i][k] = m.varNames[lv]
		}
	}
	return out
}

// Expr renders n as a provenance-style expression over positive cubes, e.g.
// "a + b*c", matching the paper's <...> annotations. True renders as "1"
// and False as "0".
func (m *Manager) Expr(n Node) string { return string(m.AppendExpr(nil, n)) }

// AppendExpr appends Expr(n) to b. It allocates only to grow b and, for a
// root with more cubes than the manager has walked before, its scratch.
func (m *Manager) AppendExpr(b []byte, n Node) []byte {
	if n == False {
		return append(b, '0')
	}
	for i, c := range m.walkCubes(n) {
		if i > 0 {
			b = append(b, " + "...)
		}
		if len(c) == 0 {
			b = append(b, '1')
		}
		for k, lv := range c {
			if k > 0 {
				b = append(b, '*')
			}
			b = append(b, m.varNames[lv]...)
		}
	}
	return b
}

// cubeScratch is the walk Cubes and AppendExpr share, kept between calls:
// the levels taken positively on the way down (path), every cube's levels
// back to back (lv), and the cubes, each a slice of lv.
type cubeScratch struct {
	path, lv []int32
	cubes    [][]int32
}

// walkCubes enumerates n's cubes into the manager's cube scratch, each
// cube's levels ordered by variable name, and returns them ordered by
// length, then by names, with every cube that repeats or contains another
// dropped. They stay valid until the next walk.
func (m *Manager) walkCubes(n Node) [][]int32 {
	s := &m.cube
	s.path, s.lv, s.cubes = s.path[:0], s.lv[:0], s.cubes[:0]
	m.pathCubes(n)
	byName := func(a, b int32) int { return strings.Compare(m.varNames[a], m.varNames[b]) }
	for _, c := range s.cubes {
		slices.SortFunc(c, byName)
	}
	slices.SortFunc(s.cubes, func(a, b []int32) int {
		return cmp.Or(cmp.Compare(len(a), len(b)), slices.CompareFunc(a, b, byName))
	})
	// Path enumeration can emit redundant cubes (a path taking the lo edge
	// of one variable and the hi edge of a later one yields a superset of a
	// shorter cube). For monotone functions the subset-minimal path cubes
	// are exactly the prime implicants, so drop any cube that contains
	// another. Cubes are sorted by length, so each cube need only be
	// checked against the shorter ones already kept.
	kept := s.cubes[:0]
	for _, c := range s.cubes {
		if !slices.ContainsFunc(kept, func(k []int32) bool { return within(k, c) }) {
			kept = append(kept, c)
		}
	}
	s.cubes = kept
	return kept
}

// pathCubes appends a cube for every path from x to True.
func (m *Manager) pathCubes(x Node) {
	s := &m.cube
	switch x {
	case False:
	case True:
		start := len(s.lv)
		s.lv = append(s.lv, s.path...)
		s.cubes = append(s.cubes, s.lv[start:len(s.lv):len(s.lv)])
	default:
		d := m.nodes[x]
		m.pathCubes(d.lo)
		s.path = append(s.path, d.level)
		m.pathCubes(d.hi)
		s.path = s.path[:len(s.path)-1]
	}
}

// within reports whether cube a is cube b or a subset of it. Both are
// ordered by name, and a name is one level, so levels compare.
func within(a, b []int32) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

// --- Tables ---

// ErrBadEncoding reports a table that does not decode.
var ErrBadEncoding = errors.New("bdd: bad encoding")

// tableScratch is AppendTable's bookkeeping, kept between calls so a table
// costs no map: nodeRef[n] is node n's ref in the table being built and
// varIdx[level] its variable's index + 1 (0 = not in it yet); order and
// levels list them in table order. Every entry is zeroed again before
// AppendTable returns.
type tableScratch struct {
	nodeRef []uint32
	varIdx  []uint32
	order   []Node
	levels  []int32
}

// AppendTable appends the table of roots to b and each root's ref into
// it to refs. A table carries any number of BDDs of one manager as one
// self-contained encoding, so they share their common subgraphs and every
// variable name is written once — the condensed provenance of a whole
// data frame:
//
//	uvarint varCount, then varCount × string name (uvarint length, bytes)
//	uvarint nodeCount, then nodeCount × (uvarint varIndex, uvarint loRef, uvarint hiRef)
//
// A ref names one function of the table: 0 = False, 1 = True, k+2 = the
// k-th node. Nodes come bottom-up and a node may only reference nodes
// before it, so a table is acyclic and decodes in one pass. Variables are
// matched by name, so a table decodes into a manager with any variable
// order.
//
// Node (v, lo, hi) decodes as lo + v·hi (DecodeTable). For the monotone
// functions provenance polynomials are (no negation, §4.4), lo implies hi
// at every node and that is exactly the Shannon node v ? hi : lo;
// whatever the bytes say, every function a table decodes to is monotone,
// so its Cubes are its prime implicants.
func (m *Manager) AppendTable(b []byte, refs []uint64, roots []Node) ([]byte, []uint64) {
	s := &m.tab
	s.nodeRef = grow(s.nodeRef, len(m.nodes))
	s.varIdx = grow(s.varIdx, len(m.varNames))
	for _, r := range roots {
		refs = append(refs, uint64(m.tableRef(r)))
	}
	b = binary.AppendUvarint(b, uint64(len(s.levels)))
	for _, lv := range s.levels {
		b = binary.AppendUvarint(b, uint64(len(m.varNames[lv])))
		b = append(b, m.varNames[lv]...)
	}
	b = binary.AppendUvarint(b, uint64(len(s.order)))
	for _, x := range s.order {
		d := m.nodes[x]
		b = binary.AppendUvarint(b, uint64(s.varIdx[d.level]-1))
		b = binary.AppendUvarint(b, uint64(m.tableRef(d.lo)))
		b = binary.AppendUvarint(b, uint64(m.tableRef(d.hi)))
	}
	for _, x := range s.order {
		s.nodeRef[x] = 0
	}
	for _, lv := range s.levels {
		s.varIdx[lv] = 0
	}
	s.order, s.levels = s.order[:0], s.levels[:0]
	return b, refs
}

// tableRef returns x's ref in the table being built, adding x — after
// everything below it — if it is not in it yet.
func (m *Manager) tableRef(x Node) uint32 {
	if x == False || x == True {
		return uint32(x)
	}
	s := &m.tab
	if r := s.nodeRef[x]; r != 0 {
		return r
	}
	d := m.nodes[x]
	m.tableRef(d.lo)
	m.tableRef(d.hi)
	if s.varIdx[d.level] == 0 {
		s.levels = append(s.levels, d.level)
		s.varIdx[d.level] = uint32(len(s.levels))
	}
	s.order = append(s.order, x)
	s.nodeRef[x] = uint32(len(s.order) + 1)
	return s.nodeRef[x]
}

// grow extends s with zeros to length n.
func grow(s []uint32, n int) []uint32 {
	if len(s) < n {
		s = append(s, make([]uint32, n-len(s))...)
	}
	return s
}

// CheckTable validates a table's shape without decoding it — every count
// against the bytes left, every variable index and ref against what came
// before it, no trailing bytes — and returns how many refs it defines
// (node count + 2). It allocates nothing, so it can run before the bytes
// are authenticated.
func CheckTable(b []byte) (int, error) {
	r := tableReader{b: b}
	vars := r.count("variable", 1)
	for i := 0; i < vars; i++ {
		r.name()
	}
	nodes := r.count("node", 3)
	for k := 0; k < nodes; k++ {
		r.node(k, vars)
	}
	return nodes + 2, r.done()
}

// decodeScratch is where DecodeTable decodes, kept between calls: the
// table's variables and the function of each of its refs.
type decodeScratch struct {
	vars, nodes []Node
}

// DecodeTable decodes a table into this manager and returns the function
// each ref names: ref r is nodes[r]. nodes is the manager's scratch,
// valid until its next DecodeTable: copy out what is kept. A table that
// does not check (CheckTable) is refused before the manager is touched.
func (m *Manager) DecodeTable(b []byte) ([]Node, error) {
	if _, err := CheckTable(b); err != nil {
		return nil, err
	}
	r := tableReader{b: b}
	d := &m.dec
	d.vars = d.vars[:0]
	for i := r.count("variable", 1); i > 0; i-- {
		name := r.name()
		lv, ok := m.varIdx[string(name)]
		if !ok {
			lv = m.varLevel(string(name))
		}
		d.vars = append(d.vars, m.mk(lv, False, True))
	}
	count := r.count("node", 3)
	d.nodes = append(d.nodes[:0], False, True)
	for k := 0; k < count; k++ {
		v, lo, hi := r.node(k, len(d.vars))
		d.nodes = append(d.nodes, m.ITE(m.ITE(d.vars[v], d.nodes[hi], False), True, d.nodes[lo]))
	}
	return d.nodes, nil
}

// PoisonDecodeForTesting overwrites the nodes the last DecodeTable
// returned with a node no manager has, so a caller that reads them after
// it should have copied them out fails instead of reading a later
// table's functions.
func (m *Manager) PoisonDecodeForTesting() {
	for i := range m.dec.nodes {
		m.dec.nodes[i] = -1
	}
}

// tableReader walks a table field by field. The first failure sticks and
// every later read returns zero, so callers check once, at done.
type tableReader struct {
	b   []byte
	err error
}

func (r *tableReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadEncoding}, args...)...)
	}
	r.b = nil
}

func (r *tableReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

// count reads an element count and refuses one the bytes left cannot
// hold at size bytes an element, before anything is sized by it.
func (r *tableReader) count(what string, size int) int {
	c := r.uvarint()
	if c > uint64(len(r.b)/size) {
		r.fail("%s count %d exceeds the %d bytes left", what, c, len(r.b))
		return 0
	}
	return int(c)
}

func (r *tableReader) name() []byte {
	l := r.uvarint()
	if l > uint64(len(r.b)) {
		r.fail("variable name of %d bytes exceeds the %d left", l, len(r.b))
		return nil
	}
	name := r.b[:l]
	r.b = r.b[l:]
	return name
}

// node reads node k of a table with vars variables and returns its
// variable index and refs, each checked.
func (r *tableReader) node(k, vars int) (v, lo, hi int) {
	rv, rlo, rhi := r.uvarint(), r.uvarint(), r.uvarint()
	switch {
	case r.err != nil:
	case rv >= uint64(vars):
		r.fail("node %d: variable %d of %d", k, rv, vars)
	case rlo >= uint64(k+2) || rhi >= uint64(k+2):
		r.fail("node %d: ref %d or %d is not below it", k, rlo, rhi)
	default:
		return int(rv), int(rlo), int(rhi)
	}
	return 0, 0, 0
}

// done reports the first failure, or trailing bytes.
func (r *tableReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// String renders a short description of the manager, for debugging.
func (m *Manager) String() string {
	return fmt.Sprintf("bdd.Manager{vars: %d, nodes: %d}", len(m.varNames), len(m.nodes))
}
