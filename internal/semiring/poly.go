package semiring

import (
	"sort"
	"strconv"
	"strings"

	"provnet/internal/bdd"
)

// Poly is a provenance polynomial in N[X]: a sum of monomials with natural
// coefficients, where each monomial is a product of variables with natural
// exponents. It is the most general ("how"-provenance) annotation; every
// other provenance notion in the paper is a homomorphic image of it.
//
// Poly values are immutable: operations return new polynomials.
type Poly struct {
	terms map[string]term // keyed by monomial key
}

type term struct {
	coeff int64
	vars  []factor // sorted by name
}

type factor struct {
	name string
	exp  int
}

func (t term) key() string {
	var b strings.Builder
	for _, f := range t.vars {
		b.WriteString(strconv.Itoa(len(f.name)))
		b.WriteByte(':')
		b.WriteString(f.name)
		b.WriteByte('^')
		b.WriteString(strconv.Itoa(f.exp))
	}
	return b.String()
}

// Zero returns the zero polynomial (no derivations).
func Zero() Poly { return Poly{} }

// One returns the unit polynomial (an axiomatic derivation using no base
// tuples).
func One() Poly {
	return Poly{terms: map[string]term{"": {coeff: 1}}}
}

// Var returns the polynomial consisting of the single variable name.
func Var(name string) Poly {
	t := term{coeff: 1, vars: []factor{{name: name, exp: 1}}}
	return Poly{terms: map[string]term{t.key(): t}}
}

// IsZero reports whether p has no terms.
func (p Poly) IsZero() bool { return len(p.terms) == 0 }

// IsOne reports whether p is exactly the unit polynomial.
func (p Poly) IsOne() bool {
	if len(p.terms) != 1 {
		return false
	}
	t, ok := p.terms[""]
	return ok && t.coeff == 1
}

// Add returns p + q (alternative derivations).
func (p Poly) Add(q Poly) Poly {
	if p.IsZero() {
		return q
	}
	if q.IsZero() {
		return p
	}
	out := make(map[string]term, len(p.terms)+len(q.terms))
	for k, t := range p.terms {
		out[k] = t
	}
	for k, t := range q.terms {
		if prev, ok := out[k]; ok {
			prev.coeff += t.coeff
			out[k] = prev
		} else {
			out[k] = t
		}
	}
	return Poly{terms: out}
}

// Mul returns p · q (joint use of derivations in one rule body).
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Zero()
	}
	if p.IsOne() {
		return q
	}
	if q.IsOne() {
		return p
	}
	out := make(map[string]term, len(p.terms)*len(q.terms))
	for _, a := range p.terms {
		for _, b := range q.terms {
			m := mulTerm(a, b)
			k := m.key()
			if prev, ok := out[k]; ok {
				prev.coeff += m.coeff
				out[k] = prev
			} else {
				out[k] = m
			}
		}
	}
	return Poly{terms: out}
}

func mulTerm(a, b term) term {
	out := term{coeff: a.coeff * b.coeff}
	i, j := 0, 0
	for i < len(a.vars) && j < len(b.vars) {
		switch {
		case a.vars[i].name == b.vars[j].name:
			out.vars = append(out.vars, factor{a.vars[i].name, a.vars[i].exp + b.vars[j].exp})
			i++
			j++
		case a.vars[i].name < b.vars[j].name:
			out.vars = append(out.vars, a.vars[i])
			i++
		default:
			out.vars = append(out.vars, b.vars[j])
			j++
		}
	}
	out.vars = append(out.vars, a.vars[i:]...)
	out.vars = append(out.vars, b.vars[j:]...)
	return out
}

// Support returns the sorted set of variables appearing in p.
func (p Poly) Support() []string {
	set := map[string]bool{}
	for _, t := range p.terms {
		for _, f := range t.vars {
			set[f.name] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether p and q are identical polynomials (same monomials
// with same coefficients).
func (p Poly) Equal(q Poly) bool {
	if len(p.terms) != len(q.terms) {
		return false
	}
	for k, t := range p.terms {
		u, ok := q.terms[k]
		if !ok || u.coeff != t.coeff {
			return false
		}
	}
	return true
}

// sortedTerms returns the terms in a deterministic order: by total degree,
// then by key.
func (p Poly) sortedTerms() []term {
	out := make([]term, 0, len(p.terms))
	for _, t := range p.terms {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := degree(out[i]), degree(out[j])
		if di != dj {
			return di < dj
		}
		return out[i].key() < out[j].key()
	})
	return out
}

func degree(t term) int {
	d := 0
	for _, f := range t.vars {
		d += f.exp
	}
	return d
}

// String renders the polynomial in the paper's annotation style, e.g.
// "a + a*b". Coefficients and exponents are shown when non-trivial:
// "2*a + b^2". The zero polynomial renders as "0" and the unit as "1".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var parts []string
	for _, t := range p.sortedTerms() {
		var fs []string
		if t.coeff != 1 || len(t.vars) == 0 {
			fs = append(fs, strconv.FormatInt(t.coeff, 10))
		}
		for _, f := range t.vars {
			if f.exp == 1 {
				fs = append(fs, f.name)
			} else {
				fs = append(fs, f.name+"^"+strconv.Itoa(f.exp))
			}
		}
		parts = append(parts, strings.Join(fs, "*"))
	}
	return strings.Join(parts, " + ")
}

// Eval evaluates p under the semiring s, assigning each variable the value
// given by assign. This is the semiring homomorphism N[X] → S that yields
// the paper's quantifiable provenance: pass Trust with principal security
// levels to compute max-of-min trust, Count with all-ones to count
// derivations, and so on.
func Eval[T any](p Poly, s Semiring[T], assign func(string) T) T {
	acc := s.Zero()
	for _, t := range p.terms {
		tv := s.One()
		for _, f := range t.vars {
			tv = s.Mul(tv, Pow(s, assign(f.name), f.exp))
		}
		acc = s.Add(acc, AddN(s, tv, t.coeff))
	}
	return acc
}

// ToBDD condenses p into a BDD in manager m: coefficients and exponents are
// dropped (the B[X] image of the polynomial), and BDD reduction applies
// absorption and idempotence — the paper's §4.4 condensation, where
// <a + a*b> becomes <a>.
func (p Poly) ToBDD(m *bdd.Manager) bdd.Node {
	if p.IsZero() {
		return bdd.False
	}
	root := bdd.False
	for _, t := range p.sortedTerms() {
		cube := bdd.True
		for _, f := range t.vars {
			cube = m.And(cube, m.Var(f.name))
		}
		root = m.Or(root, cube)
	}
	return root
}

// FromCubes rebuilds a polynomial (in B[X] form: coefficients 1, exponents
// 1) from a DNF cube list, as produced by bdd.Manager.Cubes. It is used to
// interpret condensed provenance received from the network.
func FromCubes(cubes [][]string) Poly {
	p := Zero()
	for _, cube := range cubes {
		t := One()
		for _, v := range cube {
			t = t.Mul(Var(v))
		}
		p = p.Add(t)
	}
	return p
}

// Votes returns the number of alternative derivations whose variable sets
// are pairwise disjoint-independent in the simple sense used by the paper's
// "vote" notion (§4.5): the number of distinct minimal principal sets that
// assert the tuple. It condenses p (dropping coefficients), extracts the
// minimal cubes, and counts the distinct principals appearing as singleton
// supports plus distinct minimal cubes.
//
// Concretely: Votes is the number of minimal cubes of the condensed
// provenance. A policy "accept if over K principals assert the update" can
// be checked with VotesBy, which counts distinct principals that appear in
// at least one minimal cube all of whose members assert it.
func (p Poly) Votes(m *bdd.Manager) int {
	return len(m.Cubes(p.ToBDD(m)))
}

// MapVars applies a variable renaming to the polynomial, merging
// identically renamed variables. It implements the paper's provenance
// granularity optimization (§5): mapping node principals to their AS
// yields AS-level provenance, e.g. n1 + n2*n3 with {n1,n2}→as1, {n3}→as2
// becomes as1 + as1*as2.
func (p Poly) MapVars(rename func(string) string) Poly {
	out := Zero()
	for _, t := range p.terms {
		mono := One()
		for _, f := range t.vars {
			v := Var(rename(f.name))
			for i := 0; i < f.exp; i++ {
				mono = mono.Mul(v)
			}
		}
		out = out.Add(scale(mono, t.coeff))
	}
	return out
}

// scale multiplies every coefficient of p by k.
func scale(p Poly, k int64) Poly {
	if k == 1 {
		return p
	}
	terms := make(map[string]term, len(p.terms))
	for key, t := range p.terms {
		t.coeff *= k
		terms[key] = t
	}
	return Poly{terms: terms}
}
