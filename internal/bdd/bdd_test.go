package bdd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	m := New()
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("Not on terminals")
	}
	if m.And() != True || m.Or() != False {
		t.Fatal("empty And/Or identities")
	}
	if m.And(True, False) != False || m.Or(True, False) != True {
		t.Fatal("And/Or terminals")
	}
}

func TestVarIdempotent(t *testing.T) {
	m := New()
	a1 := m.Var("a")
	a2 := m.Var("a")
	if a1 != a2 {
		t.Fatal("Var must be hash-consed")
	}
}

func TestBasicLaws(t *testing.T) {
	m := New()
	a, b := m.Var("a"), m.Var("b")
	if m.And(a, a) != a {
		t.Error("idempotence of And")
	}
	if m.Or(a, a) != a {
		t.Error("idempotence of Or")
	}
	if m.And(a, m.Not(a)) != False {
		t.Error("contradiction")
	}
	if m.Or(a, m.Not(a)) != True {
		t.Error("excluded middle")
	}
	if m.And(a, b) != m.And(b, a) {
		t.Error("commutativity of And")
	}
	if m.Or(a, b) != m.Or(b, a) {
		t.Error("commutativity of Or")
	}
	if m.Not(m.Not(a)) != a {
		t.Error("double negation")
	}
}

// TestAbsorption checks the paper's §4.4 condensation example: the
// provenance expression a + a*b for reachable(a,c) condenses to just a.
func TestAbsorption(t *testing.T) {
	m := New()
	a, b := m.Var("a"), m.Var("b")
	expr := m.Or(a, m.And(a, b))
	if expr != a {
		t.Fatalf("a + a*b should reduce to a; Expr = %s", m.Expr(expr))
	}
	if got := m.Expr(expr); got != "a" {
		t.Fatalf("Expr = %q, want %q", got, "a")
	}
}

func TestExprRendering(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	cases := []struct {
		n    Node
		want string
	}{
		{True, "1"},
		{False, "0"},
		{a, "a"},
		{m.And(a, b), "a*b"},
		{m.Or(m.And(a, b), c), "c + a*b"},
		{m.Or(a, m.And(b, c)), "a + b*c"},
	}
	for _, cse := range cases {
		if got := m.Expr(cse.n); got != cse.want {
			t.Errorf("Expr = %q, want %q", got, cse.want)
		}
	}
}

// refExpr is Expr as it was written before AppendExpr: Cubes built as
// one []string per path, sorted, pruned of supersets and joined with
// strings.Join. TestAppendExprMatchesCubes holds the one walk Cubes,
// Expr and AppendExpr now share to it, byte for byte.
func refExpr(m *Manager, n Node) string {
	if n == True {
		return "1"
	}
	if n == False {
		return "0"
	}
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
	subset := func(a, b []string) bool { // a ⊆ b, both sorted
		i := 0
		for _, v := range b {
			if i < len(a) && a[i] == v {
				i++
			}
		}
		return i == len(a)
	}
	var parts []string
	var kept [][]string
	for _, c := range out {
		redundant := false
		for _, k := range kept {
			if len(k) <= len(c) && subset(k, c) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, c)
			if len(c) == 0 {
				parts = append(parts, "1")
			} else {
				parts = append(parts, strings.Join(c, "*"))
			}
		}
	}
	return strings.Join(parts, " + ")
}

// TestAppendExprMatchesCubes pins the renderer to refExpr on random
// monotone and arbitrary BDDs, on tables decoded into a manager whose
// variable order is neither the sender's nor the names' own, and on the
// terminals and single variables; the names are chosen so that their
// order differs from every manager's variable order. Cubes must list the
// cubes Expr joins. Rendering into a warm buffer allocates nothing.
func TestAppendExprMatchesCubes(t *testing.T) {
	vars := []string{"p10", "b", "p2", "a", "ab", "p1"}
	check := func(m *Manager, n Node) {
		t.Helper()
		want := refExpr(m, n)
		if got := string(m.AppendExpr([]byte("x"), n)); got != "x"+want {
			t.Fatalf("AppendExpr(%d) = %q, want %q", n, got, "x"+want)
		}
		if got := m.Expr(n); got != want {
			t.Fatalf("Expr(%d) = %q, want %q", n, got, want)
		}
		if n == True || n == False {
			return
		}
		var parts []string
		for _, c := range m.Cubes(n) {
			if len(c) == 0 {
				parts = append(parts, "1")
			} else {
				parts = append(parts, strings.Join(c, "*"))
			}
		}
		if got := strings.Join(parts, " + "); got != want {
			t.Fatalf("Cubes(%d) joins to %q, want %q", n, got, want)
		}
	}
	r := rand.New(rand.NewSource(41))
	m := New()
	m.DeclareOrder("p2", "a", "p10", "ab", "p1", "b")
	recv := New()
	recv.DeclareOrder("ab", "p1", "b", "p10", "a", "p2")
	check(m, True)
	check(m, False)
	for _, v := range vars {
		check(m, m.Var(v))
	}
	for range 300 {
		roots := make([]Node, 1+r.Intn(5))
		for i := range roots {
			e := monoExpr(r, 5)
			if r.Intn(4) == 0 {
				e = randExpr(r, 4, len(vars))
			}
			roots[i] = e.build(m, vars)
			check(m, roots[i])
		}
		b, refs := m.AppendTable(nil, nil, roots)
		nodes, err := recv.DecodeTable(b)
		if err != nil {
			t.Fatal(err)
		}
		nodes = slices.Clone(nodes)
		for _, ref := range refs {
			check(recv, nodes[ref])
		}
	}
	f := m.Or(m.And(m.Var("p10"), m.Var("b")), m.And(m.Var("a"), m.Var("ab"), m.Var("p1")), m.Var("p2"))
	buf := m.AppendExpr(nil, f)
	if allocs := testing.AllocsPerRun(100, func() { buf = m.AppendExpr(buf[:0], f) }); allocs != 0 {
		t.Errorf("AppendExpr into a warm buffer: %v allocations, want 0", allocs)
	}
}

func TestEval(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	f := m.Or(m.And(a, b), m.And(m.Not(a), c))
	cases := []struct {
		assign map[string]bool
		want   bool
	}{
		{map[string]bool{"a": true, "b": true}, true},
		{map[string]bool{"a": true, "b": false}, false},
		{map[string]bool{"a": false, "c": true}, true},
		{map[string]bool{"a": false, "c": false}, false},
		{map[string]bool{}, false},
	}
	for i, cse := range cases {
		if got := m.Eval(f, cse.assign); got != cse.want {
			t.Errorf("case %d: Eval = %v", i, got)
		}
	}
}

func TestRestrictAndExists(t *testing.T) {
	m := New()
	a, b := m.Var("a"), m.Var("b")
	f := m.And(a, b)
	if m.Restrict(f, "a", true) != b {
		t.Error("restrict a=1 of a*b should be b")
	}
	if m.Restrict(f, "a", false) != False {
		t.Error("restrict a=0 of a*b should be 0")
	}
	if m.Restrict(f, "zz", true) != f {
		t.Error("restrict of unknown var should be identity")
	}
	// Existential quantification is the Or of the two restrictions.
	exists := func(n Node, v string) Node { return m.Or(m.Restrict(n, v, false), m.Restrict(n, v, true)) }
	if exists(f, "a") != b {
		t.Error("∃a. a*b should be b")
	}
	if exists(m.Or(a, b), "a") != True {
		t.Error("∃a. a+b should be 1")
	}
}

func TestSupport(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	f := m.Or(m.And(a, b), m.And(a, c))
	got := m.Support(f)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Support = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
	// a + a*b has support {a} only after reduction.
	g := m.Or(a, m.And(a, b))
	if s := m.Support(g); len(s) != 1 || s[0] != "a" {
		t.Fatalf("Support(a+a*b) = %v", s)
	}
}

func TestCubesMonotone(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	f := m.Or(m.And(a, b), c)
	cubes := m.Cubes(f)
	if len(cubes) != 2 {
		t.Fatalf("Cubes = %v", cubes)
	}
	// Sorted by length: [c] then [a b].
	if len(cubes[0]) != 1 || cubes[0][0] != "c" {
		t.Errorf("cube 0 = %v", cubes[0])
	}
	if len(cubes[1]) != 2 || cubes[1][0] != "a" || cubes[1][1] != "b" {
		t.Errorf("cube 1 = %v", cubes[1])
	}
}

// roundTrip ships f from m to m2 as the table of one root.
func roundTrip(t *testing.T, m *Manager, f Node, m2 *Manager) Node {
	t.Helper()
	b, refs := m.AppendTable(nil, nil, []Node{f})
	nodes, err := m2.DecodeTable(b)
	if err != nil {
		t.Fatalf("DecodeTable: %v", err)
	}
	return nodes[refs[0]]
}

func TestSerializeRoundTrip(t *testing.T) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	fns := []Node{True, False, a, m.And(a, b), m.Or(m.And(a, b), c), m.Or(a, m.And(b, c)), m.Or(m.And(a, b), m.And(a, c), m.And(b, c))}
	for _, f := range fns {
		// Compare by truth table over the support vars.
		m2 := New()
		g := roundTrip(t, m, f, m2)
		assertSameFunction(t, m, f, m2, g, []string{"a", "b", "c"})
	}
}

// TestTableSharesSubgraphs pins what a table is for: roots that share a
// subgraph write it, and each variable name, once.
func TestTableSharesSubgraphs(t *testing.T) {
	m := New()
	m.DeclareOrder("a", "b", "c", "d", "e") // the sender's own principal above the upstream suffix
	suffix := m.And(m.Var("c"), m.Var("d"), m.Var("e"))
	roots := []Node{m.And(m.Var("a"), suffix), m.And(m.Var("b"), suffix), suffix, suffix}
	shared, refs := m.AppendTable(nil, nil, roots)
	alone := 0
	for _, r := range roots {
		b, _ := m.AppendTable(nil, nil, []Node{r})
		alone += len(b)
	}
	if n, err := CheckTable(shared); err != nil || n != 2+5 {
		t.Errorf("CheckTable = %d, %v; want the 5 distinct nodes + 2 terminals", n, err)
	}
	if len(shared) >= alone*2/3 {
		t.Errorf("one table of %d roots is %d bytes, %d as separate tables", len(roots), len(shared), alone)
	}
	if refs[2] != refs[3] {
		t.Errorf("the same root got refs %d and %d", refs[2], refs[3])
	}
	m2 := New()
	nodes, err := m2.DecodeTable(shared)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range roots {
		if got, want := m2.Expr(nodes[refs[i]]), m.Expr(r); got != want {
			t.Errorf("root %d decoded to %s, want %s", i, got, want)
		}
	}
	// The scratch is clean again: the same call writes the same bytes.
	if again, _ := m.AppendTable(nil, nil, roots); !bytes.Equal(again, shared) {
		t.Errorf("second encoding %x, first %x", again, shared)
	}
}

func TestSerializeAcrossDifferentOrders(t *testing.T) {
	m := New()
	m.DeclareOrder("a", "b", "c")
	f := m.Or(m.And(m.Var("a"), m.Var("b")), m.Var("c"))

	m2 := New()
	m2.DeclareOrder("c", "b", "a") // reversed order
	g := roundTrip(t, m, f, m2)
	assertSameFunction(t, m, f, m2, g, []string{"a", "b", "c"})
}

func TestDeserializeErrors(t *testing.T) {
	m := New()
	f := m.And(m.Var("a"), m.Var("b"))
	enc, _ := m.AppendTable(nil, nil, []Node{f})
	for name, b := range map[string][]byte{
		"nil":                 nil,
		"a count of nothing":  {5},
		"truncated":           enc[:len(enc)-1],
		"trailing garbage":    append(append([]byte(nil), enc...), 0),
		"forward ref":         {1, 1, 'a', 2, 0, 0, 3, 0, 0, 1},
		"self ref":            {1, 1, 'a', 1, 0, 0, 2},
		"variable past count": {1, 1, 'a', 1, 1, 0, 1},
		"name past the end":   {1, 9, 'a'},
		"node count too big":  {0, 2, 0, 0, 1},
		"varint past 64 bits": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		before := m.NumNodes()
		if _, err := m.DecodeTable(b); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("%s: err = %v, want ErrBadEncoding", name, err)
		}
		if _, err := CheckTable(b); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("%s: CheckTable err = %v, want ErrBadEncoding", name, err)
		}
		if m.NumNodes() != before {
			t.Errorf("%s: a refused table built nodes", name)
		}
	}
	if refs, err := CheckTable(enc); err != nil || refs != 4 {
		t.Errorf("CheckTable(a*b) = %d, %v; want 4 refs", refs, err)
	}
}

// TestTableDecodesMonotone: node (v, lo, hi) is lo + v·hi, so even a
// table spelling out a negation decodes to a monotone function.
func TestTableDecodesMonotone(t *testing.T) {
	m := New()
	notA := []byte{1, 1, 'a', 1, 0, 1, 0} // a ? False : True
	nodes, err := m.DecodeTable(notA)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[2] != True {
		t.Errorf("decoded %s, want 1 (= 1 + a·0)", m.Expr(nodes[2]))
	}
}
func assertSameFunction(t *testing.T, m1 *Manager, f Node, m2 *Manager, g Node, vars []string) {
	t.Helper()
	n := len(vars)
	for mask := 0; mask < 1<<n; mask++ {
		assign := make(map[string]bool)
		for i, v := range vars {
			assign[v] = mask&(1<<i) != 0
		}
		if m1.Eval(f, assign) != m2.Eval(g, assign) {
			t.Fatalf("functions differ under %v", assign)
		}
	}
}

// --- randomized properties ---

// expr is a random boolean expression evaluated both directly and via BDD.
type expr struct {
	op       byte // 'v', '&', '|', '!', '^'
	v        int
	lhs, rhs *expr
}

func randExpr(r *rand.Rand, depth, nvars int) *expr {
	if depth == 0 || r.Intn(3) == 0 {
		return &expr{op: 'v', v: r.Intn(nvars)}
	}
	switch r.Intn(4) {
	case 0:
		return &expr{op: '&', lhs: randExpr(r, depth-1, nvars), rhs: randExpr(r, depth-1, nvars)}
	case 1:
		return &expr{op: '|', lhs: randExpr(r, depth-1, nvars), rhs: randExpr(r, depth-1, nvars)}
	case 2:
		return &expr{op: '^', lhs: randExpr(r, depth-1, nvars), rhs: randExpr(r, depth-1, nvars)}
	default:
		return &expr{op: '!', lhs: randExpr(r, depth-1, nvars)}
	}
}

func (e *expr) eval(assign []bool) bool {
	switch e.op {
	case 'v':
		return assign[e.v]
	case '&':
		return e.lhs.eval(assign) && e.rhs.eval(assign)
	case '|':
		return e.lhs.eval(assign) || e.rhs.eval(assign)
	case '^':
		return e.lhs.eval(assign) != e.rhs.eval(assign)
	default:
		return !e.lhs.eval(assign)
	}
}

func (e *expr) build(m *Manager, vars []string) Node {
	switch e.op {
	case 'v':
		return m.Var(vars[e.v])
	case '&':
		return m.And(e.lhs.build(m, vars), e.rhs.build(m, vars))
	case '|':
		return m.Or(e.lhs.build(m, vars), e.rhs.build(m, vars))
	case '^':
		l, r := e.lhs.build(m, vars), e.rhs.build(m, vars)
		return m.ITE(l, m.Not(r), r)
	default:
		return m.Not(e.lhs.build(m, vars))
	}
}

var testVars = []string{"v0", "v1", "v2", "v3", "v4"}

func TestQuickBDDMatchesTruthTable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 5, len(testVars))
		m := New()
		m.DeclareOrder(testVars...)
		n := e.build(m, testVars)
		for mask := 0; mask < 1<<len(testVars); mask++ {
			assign := make([]bool, len(testVars))
			am := make(map[string]bool)
			for i := range testVars {
				assign[i] = mask&(1<<i) != 0
				am[testVars[i]] = assign[i]
			}
			if e.eval(assign) != m.Eval(n, am) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCanonicity(t *testing.T) {
	// Two structurally different but equivalent expressions must produce
	// the identical node (canonicity of ROBDDs).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 4, 3)
		m := New()
		m.DeclareOrder(testVars[:3]...)
		n1 := e.build(m, testVars[:3])
		// Rebuild the same expression: must be the same node.
		n2 := e.build(m, testVars[:3])
		// De Morgan on a conjunction wrapper: !(!e1 | !e2) == e1 & e2.
		n3 := m.Not(m.Or(m.Not(n1), m.Not(n1)))
		return n1 == n2 && n3 == n1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// monoExpr is a random negation-free expression: a provenance polynomial.
func monoExpr(r *rand.Rand, depth int) *expr {
	if depth == 0 || r.Intn(3) == 0 {
		return &expr{op: 'v', v: r.Intn(len(testVars))}
	}
	if r.Intn(2) == 0 {
		return &expr{op: '&', lhs: monoExpr(r, depth-1), rhs: monoExpr(r, depth-1)}
	}
	return &expr{op: '|', lhs: monoExpr(r, depth-1), rhs: monoExpr(r, depth-1)}
}

// TestQuickSerializeRoundTrip is the table codec's property test against
// an independent reading: random monotone BDDs of one manager ship as one
// table into a manager with the reverse variable order, and every root's
// Cubes — computed by the receiver over its own structure — equal the
// sender's, and equal what the table of that root alone decodes to.
func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New()
		m.DeclareOrder(testVars...)
		roots := make([]Node, 1+r.Intn(6))
		for i := range roots {
			roots[i] = monoExpr(r, 5).build(m, testVars)
		}
		m2 := New()
		for i := len(testVars) - 1; i >= 0; i-- {
			m2.Var(testVars[i])
		}
		b, refs := m.AppendTable(nil, nil, roots)
		nodes, err := m2.DecodeTable(b)
		if err != nil {
			t.Log(err)
			return false
		}
		nodes = slices.Clone(nodes) // roundTrip decodes again below
		for i, root := range roots {
			want := fmt.Sprint(m.Cubes(root))
			alone := roundTrip(t, m, root, m2)
			if got := fmt.Sprint(m2.Cubes(nodes[refs[i]])); got != want || alone != nodes[refs[i]] {
				t.Logf("seed %d root %d: shared %s, alone %s, want %s", seed, i, got, m2.Cubes(alone), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeTable: whatever the bytes, DecodeTable returns nodes or an
// error — never a panic — agrees with CheckTable, and allocates nothing on
// the word of a count the bytes cannot hold. Every function an accepted
// table decodes to is monotone: rebuilt from its Cubes, it is the same
// node.
func FuzzDecodeTable(f *testing.F) {
	m := New()
	a, b, c := m.Var("a"), m.Var("b"), m.Var("c")
	for _, roots := range [][]Node{
		{True}, {False}, {a}, {m.And(a, b), m.Or(m.And(a, b), c), m.And(a, b)},
	} {
		enc, _ := m.AppendTable(nil, nil, roots)
		f.Add(enc)
	}
	f.Add([]byte{1, 1, 'a', 1, 0, 1, 0})
	f.Add([]byte{1, 1, 'a', 1, 0, 2, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, enc []byte) {
		m := New()
		refs, checkErr := CheckTable(enc)
		nodes, err := m.DecodeTable(enc)
		if (err == nil) != (checkErr == nil) {
			t.Fatalf("CheckTable says %v, DecodeTable %v", checkErr, err)
		}
		if err != nil {
			if m.NumNodes() != 2 {
				t.Fatal("a refused table built nodes")
			}
			return
		}
		if len(nodes) != refs {
			t.Fatalf("%d nodes, CheckTable counted %d refs", len(nodes), refs)
		}
		if m.NumNodes() > 64 {
			return // Cubes enumerates paths; keep the check small
		}
		for _, n := range nodes {
			sum := False
			for _, cube := range m.Cubes(n) {
				prod := True
				for _, v := range cube {
					prod = m.And(prod, m.Var(v))
				}
				sum = m.Or(sum, prod)
			}
			if sum != n {
				t.Fatalf("decoded %s is not monotone: its cubes rebuild %s", m.Expr(n), m.Expr(sum))
			}
		}
	})
}

func TestQuickCubesEquivalentForMonotone(t *testing.T) {
	// For negation-free expressions, the DNF from Cubes must evaluate to
	// the same function.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := monoExpr(r, 5)
		m := New()
		m.DeclareOrder(testVars...)
		n := e.build(m, testVars)
		cubes := m.Cubes(n)
		for mask := 0; mask < 1<<len(testVars); mask++ {
			am := make(map[string]bool)
			for i := range testVars {
				am[testVars[i]] = mask&(1<<i) != 0
			}
			dnf := false
			for _, cube := range cubes {
				all := true
				for _, v := range cube {
					if !am[v] {
						all = false
						break
					}
				}
				if all {
					dnf = true
					break
				}
			}
			if dnf != m.Eval(n, am) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnd(b *testing.B) {
	m := New()
	vars := make([]Node, 16)
	for i := range vars {
		vars[i] = m.Var(string(rune('a' + i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := True
		for _, v := range vars {
			f = m.And(f, v)
		}
	}
}

func BenchmarkAppendTable(b *testing.B) {
	m := New()
	f := False
	for i := 0; i < 12; i++ {
		f = m.Or(f, m.And(m.Var(string(rune('a'+i))), m.Var(string(rune('a'+(i+1)%12)))))
	}
	roots := []Node{f}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AppendTable(nil, nil, roots)
	}
}
