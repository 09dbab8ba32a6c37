package engine

import (
	"fmt"
	"testing"

	"provnet/internal/data"
)

// Retraction bookkeeping that must stay bounded: expiry purges the
// dependency index and relaxes prune groups, and the per-group prune
// shadow never outgrows its cap.

const softDepsProg = `
materialize(link, 8, infinity, keys(1,2,3)).
materialize(route, infinity, infinity, keys(1,2,3)).
s1 route(@N,Y,C) :- link(@N,Y,C).
`

// TestExpirePurgesRetractionBookkeeping is the regression test for the
// Expire leak: expired tuples must leave the dependency index, and a
// retraction issued after their expiry must not walk dependents through
// them.
func TestExpirePurgesRetractionBookkeeping(t *testing.T) {
	e := retractEngine(t, "n", softDepsProg)
	link := data.NewTuple("link", data.Str("n"), data.Str("b"), data.Int(2))
	route := data.NewTuple("route", data.Str("n"), data.Str("b"), data.Int(2))
	e.InsertFact(link)
	e.RunToFixpoint()
	if !e.Has(route) {
		t.Fatal("route not derived")
	}
	if e.DepSize() == 0 {
		t.Fatal("dependency index empty after derivation")
	}

	e.Expire(10) // past the link TTL
	if e.Has(link) {
		t.Fatal("link should have expired")
	}
	if got := e.DepSize(); got != 0 {
		t.Fatalf("dependency index holds %d entries after expiry, want 0 (leak)", got)
	}

	// Re-inserting and retracting the same fact must cascade only through
	// the fresh derivation, not resurrect stale pre-expiry bookkeeping.
	e.InsertFact(link)
	e.RunToFixpoint()
	before := e.Stats.Retracted
	e.RetractFacts(link)
	if e.Has(route) {
		t.Fatal("route should be withdrawn with its only support")
	}
	if got := e.Stats.Retracted - before; got != 2 { // link + route
		t.Fatalf("retraction cascade removed %d tuples, want 2", got)
	}
	if got := e.DepSize(); got != 0 {
		t.Fatalf("dependency index holds %d entries after full retraction, want 0", got)
	}
}

const softMinProg = `
materialize(e, 8, infinity, keys(1,2,3)).
materialize(m, infinity, infinity, keys(1,2)).
aggSelection(e, keys(1,2), min, 3).
m1 m(@N,X,min<C>) :- e(@N,X,C).
`

// TestExpireRelaxesPruneGroup: when the installed optimum of an
// aggregate-selection group expires, the group's bar must relax and
// shadowed candidates must compete again — previously the stale best
// stayed installed and every later candidate was measured against a
// vanished tuple.
func TestExpireRelaxesPruneGroup(t *testing.T) {
	e := retractEngine(t, "n", softMinProg)
	ev := func(c int64) data.Tuple {
		return data.NewTuple("e", data.Str("n"), data.Str("x"), data.Int(c))
	}
	e.InsertFact(ev(3))
	e.RunToFixpoint()
	e.now = 5
	e.InsertFact(ev(7)) // shadowed: worse than the installed 3
	e.RunToFixpoint()
	if e.Has(ev(7)) {
		t.Fatal("the 7-candidate should be pruned while 3 is live")
	}

	e.Expire(10) // 3 (created at 0) expires; 7 (created at 5) survives
	e.RunToFixpoint()
	if e.Has(ev(3)) {
		t.Fatal("the 3-candidate should have expired")
	}
	if !e.Has(ev(7)) {
		t.Fatal("the shadowed 7-candidate should be revived once the expired optimum is gone")
	}
	if got := e.Tuples("m"); len(got) != 1 || got[0].Args[2].Int != 7 {
		t.Fatalf("m = %v, want m(n,x,7)", got)
	}
}

// TestShadowCapBoundsAndFallback pins the bounded shadow cache: the
// per-group shadow never exceeds its cap (worst-first eviction), and a
// revival that lost candidates to eviction falls back to restricted
// re-derivation so the next-best tuple is still found.
func TestShadowCapBoundsAndFallback(t *testing.T) {
	const srcMinProg = `
materialize(src, infinity, infinity, keys(1,2,3)).
materialize(e, infinity, infinity, keys(1,2,3)).
materialize(m, infinity, infinity, keys(1,2)).
aggSelection(e, keys(1,2), min, 3).
d1 e(@N,X,C) :- src(@N,X,C).
m1 m(@N,X,min<C>) :- e(@N,X,C).
`
	e := cappedEngine(t, "n", srcMinProg, 2)
	src := func(c int64) data.Tuple {
		return data.NewTuple("src", data.Str("n"), data.Str("x"), data.Int(c))
	}
	m := func(c int64) data.Tuple {
		return data.NewTuple("m", data.Str("n"), data.Str("x"), data.Int(c))
	}
	for c := int64(1); c <= 6; c++ {
		e.InsertFact(src(c))
		e.RunToFixpoint()
		if got := e.ShadowSize(); got > 2 {
			t.Fatalf("shadow size %d exceeds cap 2", got)
		}
	}
	if !e.Has(m(1)) {
		t.Fatalf("m = %v, want m(n,x,1)", e.Tuples("m"))
	}

	// Retract the best repeatedly: each revival must install the true
	// next-best even though candidates beyond the cap were evicted and
	// only exist via the re-derivation fallback.
	for want := int64(2); want <= 6; want++ {
		e.RetractFacts(src(want - 1))
		e.RunToFixpoint()
		if !e.Has(m(want)) {
			t.Fatalf("after retracting %d: m = %v, want m(n,x,%d)", want-1, e.Tuples("m"), want)
		}
		if got := e.ShadowSize(); got > 2 {
			t.Fatalf("shadow size %d exceeds cap 2 during churn", got)
		}
	}
}

// TestShadowTieBreakIsTotal pins that the shadow's victim choice and
// revival order do not follow map iteration. One group's two worst
// candidates tie on the pruned column and differ only by ints that
// Value.Compare ties (it compares through float64) but Equal tells
// apart, so only a total tuple order settles which row the cap evicts
// and which revived row installs first.
func TestShadowTieBreakIsTotal(t *testing.T) {
	const prog = `
materialize(src, infinity, infinity, keys(1,2,3,4)).
materialize(e, infinity, infinity, keys(1,2,3,4)).
aggSelection(e, keys(1,2), min, 3).
d1 e(@N,X,C,T) :- src(@N,X,C,T).
`
	src := func(c, tag int64) data.Tuple {
		return data.NewTuple("src", data.Str("n"), data.Str("x"), data.Int(c), data.Int(tag))
	}
	ev := func(c, tag int64) data.Tuple {
		return data.NewTuple("e", data.Str("n"), data.Str("x"), data.Int(c), data.Int(tag))
	}
	const a, b = 1 << 53, 1<<53 + 1
	if data.Int(a).Compare(data.Int(b)) != 0 || data.Int(a).Equal(data.Int(b)) {
		t.Fatal("the two tags must tie under Compare and differ under Equal")
	}
	run := func() string {
		e := cappedEngine(t, "n", prog, 2)
		step := func(insert, retract []data.Tuple) {
			for _, tu := range insert {
				e.InsertFact(tu)
			}
			if len(retract) > 0 {
				e.RetractFacts(retract...)
			}
			e.RunToFixpoint()
		}
		step([]data.Tuple{src(1, 0)}, nil)
		step([]data.Tuple{src(5, a), src(5, b)}, nil)
		// A third candidate overflows the cap: one of the tied worst goes.
		step([]data.Tuple{src(3, 0)}, nil)
		ps := e.prunes["e"]
		g := ps.findGroup(ev(1, 0))
		var victim string
		for _, tag := range []int64{a, b} {
			if ps.findShadow(g, ev(5, tag)) == nil {
				victim += ev(5, tag).String()
			}
		}
		// Retracting the best twice revives 3, then both tied rows (the
		// fallback re-derived the evicted one): the first revived installs.
		step(nil, []data.Tuple{src(1, 0)})
		step(nil, []data.Tuple{src(3, 0)})
		return fmt.Sprintf("victim %s, installed %v", victim, e.Tuples("e"))
	}
	want := run()
	if w := fmt.Sprintf("victim %s, installed %v", ev(5, b), []data.Tuple{ev(5, a)}); want != w {
		t.Fatalf("got %s, want %s", want, w)
	}
	for i := 1; i < 64; i++ {
		if got := run(); got != want {
			t.Fatalf("engine %d: %s, engine 0: %s", i, got, want)
		}
	}
}

// TestShadowStaysBoundedUnderChurn is the long-churn pin: cycles of
// improving candidates from many origins must not grow the shadow past
// its cap, while the installed best stays correct.
func TestShadowStaysBoundedUnderChurn(t *testing.T) {
	e := cappedEngine(t, "n", softMinProg, 8)
	ev := func(c int64) data.Tuple {
		return data.NewTuple("e", data.Str("n"), data.Str("x"), data.Int(c))
	}
	max := 0
	for cycle := int64(0); cycle < 50; cycle++ {
		// A burst of worse candidates from rotating origins, then a new
		// best — the refresh-heavy regime that grew the shadow unboundedly.
		for i := int64(1); i <= 10; i++ {
			if err := e.InsertImportedFrom(fmt.Sprintf("o%d", (cycle+i)%7), ev(1000-cycle+i), nil); err != nil {
				t.Fatal(err)
			}
		}
		e.InsertFact(ev(1000 - cycle - 1))
		e.RunToFixpoint()
		if s := e.ShadowSize(); s > max {
			max = s
		}
	}
	if max > 8 {
		t.Fatalf("shadow grew to %d rows, want ≤ cap 8", max)
	}
	if got := e.Tuples("m"); len(got) != 1 || got[0].Args[2].Int != 1000-49-1 {
		t.Fatalf("m = %v, want min %d", got, 1000-49-1)
	}
}

// TestExpiredAggregateHeadLeavesDeps: when a window's every change
// expires, the aggregate group vanishes and its head is killed by the
// recount rather than by its table's TTL. The head must leave the
// dependency index like any other row that lapses, or each vanished
// count keeps an entry (and a stale cascade edge to its alert) forever.
func TestExpiredAggregateHeadLeavesDeps(t *testing.T) {
	e := newNode(t, "a", `
materialize(change, 10, infinity, keys(1,2)).
materialize(alert, 10, infinity, keys(1,2)).
c1 changes(@S,count<*>) :- change(@S,E).
a1 alert(@S,N) :- changes(@S,N), N > 1.
`, false)
	ev := int64(0)
	for w, n := range []int{2, 5, 3, 7, 4, 6} {
		now := float64(w * 20)
		e.Expire(now)
		e.RunToFixpoint()
		for range n {
			e.InsertFact(data.NewTuple("change", data.Str("a"), data.Int(ev)))
			ev++
		}
		e.RunToFixpoint()
		if got := e.Count("alert"); got != 1 {
			t.Fatalf("window %d: %d alerts, want 1", w, got)
		}
		e.Expire(now + 10) // the whole window expires
		e.RunToFixpoint()
	}
	for _, pred := range []string{"change", "changes", "alert"} {
		if got := e.Count(pred); got != 0 {
			t.Fatalf("%s holds %d rows after every window expired", pred, got)
		}
	}
	if got := e.DepSize(); got != 0 {
		t.Fatalf("dependency index holds %d entries after every window expired, want 0", got)
	}
}
