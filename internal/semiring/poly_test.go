package semiring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"provnet/internal/bdd"
)

func TestPolyBasics(t *testing.T) {
	if !Zero().IsZero() {
		t.Error("Zero().IsZero()")
	}
	if !One().IsOne() {
		t.Error("One().IsOne()")
	}
	if Var("a").IsZero() || Var("a").IsOne() {
		t.Error("Var is neither zero nor one")
	}
	if Zero().String() != "0" {
		t.Errorf("Zero string = %q", Zero().String())
	}
	if One().String() != "1" {
		t.Errorf("One string = %q", One().String())
	}
	if Var("a").String() != "a" {
		t.Errorf("Var string = %q", Var("a").String())
	}
}

func TestPolyAddMul(t *testing.T) {
	a, b, c := Var("a"), Var("b"), Var("c")
	p := a.Add(a.Mul(b))
	if got := p.String(); got != "a + a*b" {
		t.Errorf("a + a*b renders as %q", got)
	}
	q := a.Mul(b.Add(c))
	want := a.Mul(b).Add(a.Mul(c))
	if !q.Equal(want) {
		t.Errorf("distributivity: %s != %s", q, want)
	}
	if got := a.Add(a).String(); got != "2*a" {
		t.Errorf("a+a = %q, want 2*a", got)
	}
	if got := a.Mul(a).String(); got != "a^2" {
		t.Errorf("a*a = %q, want a^2", got)
	}
	if !a.Mul(Zero()).IsZero() {
		t.Error("a*0 = 0")
	}
	if !a.Mul(One()).Equal(a) {
		t.Error("a*1 = a")
	}
	if !a.Add(Zero()).Equal(a) {
		t.Error("a+0 = a")
	}
}

func TestPolySupport(t *testing.T) {
	p := Var("b").Mul(Var("a")).Add(Var("c"))
	got := p.Support()
	want := []string{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("Support = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v", got)
		}
	}
	if s := Zero().Support(); len(s) != 0 {
		t.Errorf("Zero support = %v", s)
	}
}

func TestEvalBool(t *testing.T) {
	p := Var("a").Add(Var("a").Mul(Var("b")))
	trustA := func(v string) bool { return v == "a" }
	trustB := func(v string) bool { return v == "b" }
	if !Eval[bool](p, Bool{}, trustA) {
		t.Error("derivable from a alone")
	}
	if Eval[bool](p, Bool{}, trustB) {
		t.Error("not derivable from b alone")
	}
	if Eval[bool](Zero(), Bool{}, trustA) {
		t.Error("zero never derivable")
	}
	if !Eval[bool](One(), Bool{}, func(string) bool { return false }) {
		t.Error("one always derivable")
	}
}

func TestEvalCount(t *testing.T) {
	// a + a*b has two derivations when all inputs present.
	p := Var("a").Add(Var("a").Mul(Var("b")))
	ones := func(string) int64 { return 1 }
	if got := Eval[int64](p, Count{}, ones); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	// 3 copies of base tuple a: a contributes 3, a*b contributes 3.
	three := func(v string) int64 {
		if v == "a" {
			return 3
		}
		return 1
	}
	if got := Eval[int64](p, Count{}, three); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
}

func TestEvalTrustPaperExample(t *testing.T) {
	// §4.5: <a+a*b>, level(a)=2, level(b)=1 → max(2, min(2,1)) = 2.
	p := Var("a").Add(Var("a").Mul(Var("b")))
	levels := map[string]int64{"a": 2, "b": 1}
	got := Eval[int64](p, Trust{}, func(v string) int64 { return levels[v] })
	if got != 2 {
		t.Fatalf("trust = %d, want 2", got)
	}
	// If a is only level 1, the best derivation is min(1,·) = 1.
	levels["a"] = 1
	if got := Eval[int64](p, Trust{}, func(v string) int64 { return levels[v] }); got != 1 {
		t.Fatalf("trust = %d, want 1", got)
	}
}

func TestEvalTropical(t *testing.T) {
	p := Var("a").Add(Var("b").Mul(Var("c")))
	costs := map[string]float64{"a": 10, "b": 2, "c": 3}
	got := Eval[float64](p, Tropical{}, func(v string) float64 { return costs[v] })
	if got != 5 {
		t.Errorf("tropical = %v, want 5 (b+c)", got)
	}
}

func TestToBDDCondensation(t *testing.T) {
	// The paper's condensation: <a + a*b> → <a>.
	m := bdd.New()
	p := Var("a").Add(Var("a").Mul(Var("b")))
	n := p.ToBDD(m)
	if got := m.Expr(n); got != "a" {
		t.Fatalf("condensed = %q, want a", got)
	}
	// Coefficients and exponents are dropped: 2*a^2 condenses to a.
	q := Var("a").Mul(Var("a")).Add(Var("a").Mul(Var("a")))
	if got := m.Expr(q.ToBDD(m)); got != "a" {
		t.Fatalf("condensed 2*a^2 = %q, want a", got)
	}
}

func TestFromCubesRoundTrip(t *testing.T) {
	m := bdd.New()
	p := Var("a").Mul(Var("b")).Add(Var("c"))
	cubes := m.Cubes(p.ToBDD(m))
	q := FromCubes(cubes)
	if !q.Equal(p) {
		t.Fatalf("FromCubes = %s, want %s", q, p)
	}
	if !FromCubes(nil).IsZero() {
		t.Error("FromCubes(nil) should be zero")
	}
}

func TestVotesAndMinWitness(t *testing.T) {
	m := bdd.New()
	// Two independent ways: a alone, or b*c jointly.
	p := Var("a").Add(Var("b").Mul(Var("c")))
	if got := p.Votes(m); got != 2 {
		t.Errorf("votes = %d, want 2", got)
	}
	// a + a*b has a single minimal way.
	q := Var("a").Add(Var("a").Mul(Var("b")))
	if got := q.Votes(m); got != 1 {
		t.Errorf("votes = %d, want 1", got)
	}
	// The minimal witness is the first (smallest) cube.
	if w := m.Cubes(p.ToBDD(m)); len(w) == 0 || len(w[0]) != 1 || w[0][0] != "a" {
		t.Errorf("cubes = %v, want the smallest first: [a]", w)
	}
	if w := m.Cubes(Zero().ToBDD(m)); len(w) != 0 {
		t.Errorf("cubes of zero = %v, want none", w)
	}
}

func randPoly(r *rand.Rand, depth int) Poly {
	vars := []string{"a", "b", "c", "d"}
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return Zero()
		case 1:
			return One()
		default:
			return Var(vars[r.Intn(len(vars))])
		}
	}
	if r.Intn(2) == 0 {
		return randPoly(r, depth-1).Add(randPoly(r, depth-1))
	}
	return randPoly(r, depth-1).Mul(randPoly(r, depth-1))
}

func TestQuickPolyRingLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, s := randPoly(r, 3), randPoly(r, 3), randPoly(r, 3)
		if !p.Add(q).Equal(q.Add(p)) {
			return false
		}
		if !p.Mul(q).Equal(q.Mul(p)) {
			return false
		}
		if !p.Add(q).Add(s).Equal(p.Add(q.Add(s))) {
			return false
		}
		if !p.Mul(q).Mul(s).Equal(p.Mul(q.Mul(s))) {
			return false
		}
		if !p.Mul(q.Add(s)).Equal(p.Mul(q).Add(p.Mul(s))) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEvalIsHomomorphism(t *testing.T) {
	// Eval must commute with Add and Mul, for both Count and Trust.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := randPoly(r, 3), randPoly(r, 3)
		assignC := func(v string) int64 { return int64(len(v)%3 + 1) }
		c := Count{}
		if Eval[int64](p.Add(q), c, assignC) != c.Add(Eval[int64](p, c, assignC), Eval[int64](q, c, assignC)) {
			return false
		}
		if Eval[int64](p.Mul(q), c, assignC) != c.Mul(Eval[int64](p, c, assignC), Eval[int64](q, c, assignC)) {
			return false
		}
		levels := map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4}
		assignT := func(v string) int64 { return levels[v] }
		tr := Trust{}
		if Eval[int64](p.Add(q), tr, assignT) != tr.Add(Eval[int64](p, tr, assignT), Eval[int64](q, tr, assignT)) {
			return false
		}
		if Eval[int64](p.Mul(q), tr, assignT) != tr.Mul(Eval[int64](p, tr, assignT), Eval[int64](q, tr, assignT)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCondensationPreservesBoolSemantics(t *testing.T) {
	// Condensing to a BDD and evaluating must agree with evaluating the
	// polynomial under the boolean semiring, for every assignment.
	vars := []string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r, 3)
		m := bdd.New()
		n := p.ToBDD(m)
		for mask := 0; mask < 1<<len(vars); mask++ {
			am := map[string]bool{}
			for i, v := range vars {
				am[v] = mask&(1<<i) != 0
			}
			want := Eval[bool](p, Bool{}, func(v string) bool { return am[v] })
			if m.Eval(n, am) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
