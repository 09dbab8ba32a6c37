// Package bdd implements reduced ordered binary decision diagrams (ROBDDs).
//
// The paper encodes condensed provenance expressions (provenance-semiring
// polynomials over the principals asserting base tuples) in BDDs using the
// Buddy library; BDD reduction performs the algebraic simplification the
// paper describes — e.g. a + a·b collapses to a by absorption. This package
// is a from-scratch replacement: hash-consed nodes, an ITE operation cache,
// satisfiability counting, cube (DNF) extraction for monotone functions, and
// a compact serialization used to ship provenance across the simulated
// network.
//
// A Manager owns all nodes; Node values are indices into the manager and
// are only meaningful with the manager that produced them. Managers are not
// safe for concurrent use.
package bdd

import (
	"errors"
	"fmt"
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
	var out [][]string
	var path []string
	var rec func(Node)
	rec = func(x Node) {
		if x == False {
			return
		}
		if x == True {
			cube := make([]string, len(path))
			copy(cube, path)
			sort.Strings(cube)
			out = append(out, cube)
			return
		}
		d := m.nodes[x]
		rec(d.lo)
		path = append(path, m.varNames[d.level])
		rec(d.hi)
		path = path[:len(path)-1]
	}
	rec(n)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	// Path enumeration can emit redundant cubes (a path taking the lo edge
	// of one variable and the hi edge of a later one yields a superset of a
	// shorter cube). For monotone functions the subset-minimal path cubes
	// are exactly the prime implicants, so prune any cube that contains
	// another. Cubes are sorted by length, so each cube need only be
	// checked against the shorter ones already kept.
	var kept [][]string
	for _, c := range out {
		redundant := false
		for _, k := range kept {
			if equalCube(k, c) || cubeSubset(k, c) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, c)
		}
	}
	return kept
}

// cubeSubset reports whether sorted cube a is a strict subset of sorted
// cube b.
func cubeSubset(a, b []string) bool {
	if len(a) >= len(b) {
		return false
	}
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

func equalCube(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Expr renders n as a provenance-style expression over positive cubes, e.g.
// "a + b*c", matching the paper's <...> annotations. True renders as "1"
// and False as "0".
func (m *Manager) Expr(n Node) string {
	if n == True {
		return "1"
	}
	if n == False {
		return "0"
	}
	cubes := m.Cubes(n)
	parts := make([]string, len(cubes))
	for i, c := range cubes {
		if len(c) == 0 {
			parts[i] = "1"
			continue
		}
		parts[i] = strings.Join(c, "*")
	}
	return strings.Join(parts, " + ")
}

// --- Serialization ---

// Errors returned by Deserialize.
var (
	ErrBadEncoding = errors.New("bdd: bad encoding")
)

// Serialize encodes the BDD rooted at n, including the names of the
// variables it depends on, so it can be reconstructed in a different manager
// (possibly with a different global variable order).
//
// Layout: uvarint nodeCount, then per node (in a bottom-up order):
// string varName, uvarint loRef, uvarint hiRef, finally uvarint rootRef.
// Refs: 0 = False, 1 = True, k+2 = k-th serialized node.
func (m *Manager) Serialize(n Node) []byte {
	order := make([]Node, 0)
	index := map[Node]int{}
	var visit func(Node)
	visit = func(x Node) {
		if x == True || x == False {
			return
		}
		if _, ok := index[x]; ok {
			return
		}
		d := m.nodes[x]
		visit(d.lo)
		visit(d.hi)
		index[x] = len(order)
		order = append(order, x)
	}
	visit(n)

	ref := func(x Node) uint64 {
		switch x {
		case False:
			return 0
		case True:
			return 1
		default:
			return uint64(index[x]) + 2
		}
	}

	var b []byte
	b = appendUvarint(b, uint64(len(order)))
	for _, x := range order {
		d := m.nodes[x]
		b = appendUvarint(b, uint64(len(m.varNames[d.level])))
		b = append(b, m.varNames[d.level]...)
		b = appendUvarint(b, ref(d.lo))
		b = appendUvarint(b, ref(d.hi))
	}
	b = appendUvarint(b, ref(n))
	return b
}

// Deserialize reconstructs a serialized BDD inside this manager. Variables
// are matched by name; because reconstruction rebuilds the function with
// ITE, it is correct even if this manager uses a different variable order
// than the serializing manager.
func (m *Manager) Deserialize(b []byte) (Node, error) {
	cnt, n, err := readUvarint(b)
	if err != nil {
		return False, err
	}
	if cnt > uint64(len(b)) {
		return False, ErrBadEncoding
	}
	nodes := make([]Node, cnt)
	resolve := func(r uint64, upto uint64) (Node, error) {
		switch {
		case r == 0:
			return False, nil
		case r == 1:
			return True, nil
		case r-2 < upto:
			return nodes[r-2], nil
		default:
			return False, ErrBadEncoding
		}
	}
	for i := uint64(0); i < cnt; i++ {
		nameLen, k, err := readUvarint(b[n:])
		if err != nil {
			return False, err
		}
		n += k
		if uint64(len(b)-n) < nameLen {
			return False, ErrBadEncoding
		}
		name := string(b[n : n+int(nameLen)])
		n += int(nameLen)
		loRef, k, err := readUvarint(b[n:])
		if err != nil {
			return False, err
		}
		n += k
		hiRef, k, err := readUvarint(b[n:])
		if err != nil {
			return False, err
		}
		n += k
		lo, err := resolve(loRef, i)
		if err != nil {
			return False, err
		}
		hi, err := resolve(hiRef, i)
		if err != nil {
			return False, err
		}
		v := m.Var(name)
		nodes[i] = m.ITE(v, hi, lo)
	}
	rootRef, k, err := readUvarint(b[n:])
	if err != nil {
		return False, err
	}
	n += k
	if n != len(b) {
		return False, ErrBadEncoding
	}
	return resolve(rootRef, cnt)
}

func appendUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func readUvarint(b []byte) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if i > 9 || i == 9 && c > 1 {
				return 0, 0, ErrBadEncoding
			}
			return x | uint64(c)<<s, i + 1, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0, ErrBadEncoding
}

// String renders a short description of the manager, for debugging.
func (m *Manager) String() string {
	return fmt.Sprintf("bdd.Manager{vars: %d, nodes: %d}", len(m.varNames), len(m.nodes))
}
