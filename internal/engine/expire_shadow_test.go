package engine

import (
	"fmt"
	"testing"

	"provnet/internal/data"
)

// Retraction bookkeeping that must stay bounded: expiry relaxes prune
// groups, a retraction after an expiry cascades only through what is
// stored, and the per-group prune shadow never outgrows its cap.

const softDepsProg = `
materialize(link, 8, infinity, keys(1,2,3)).
materialize(route, infinity, infinity, keys(1,2,3)).
s1 route(@N,Y,C) :- link(@N,Y,C).
`

// TestExpirePurgesRetractionBookkeeping: an expiry cascades nothing
// (derived soft state carries its own lifetime), and a retraction issued
// after it must not walk dependents through the expired row: retracting
// the expired fact withdraws nothing, and retracting it once re-inserted
// withdraws it and the one head it derives.
func TestExpirePurgesRetractionBookkeeping(t *testing.T) {
	e := retractEngine(t, "n", softDepsProg)
	link := data.NewTuple("link", data.Str("n"), data.Str("b"), data.Int(2))
	route := data.NewTuple("route", data.Str("n"), data.Str("b"), data.Int(2))
	e.InsertFact(link)
	e.RunToFixpoint()
	if !e.Has(route) {
		t.Fatal("route not derived")
	}

	e.Expire(10) // past the link TTL
	if e.Has(link) {
		t.Fatal("link should have expired")
	}
	if !e.Has(route) {
		t.Fatal("route should outlive the expired link: expiry cascades nothing")
	}
	if ws := retract(e, e.BeginRetractFacts(link)); len(ws) != 0 || e.Stats.Retracted != 0 || !e.Has(route) {
		t.Fatalf("retracting the expired link: withdrawals %v, %d retracted, route stored %v; want nothing withdrawn",
			ws, e.Stats.Retracted, e.Has(route))
	}

	// Re-inserting and retracting the same fact cascades through the
	// fresh derivation.
	e.InsertFact(link)
	e.RunToFixpoint()
	retract(e, e.BeginRetractFacts(link))
	if e.Has(route) {
		t.Fatal("route should be withdrawn with its only support")
	}
	if got := e.Stats.Retracted; got != 2 { // link + route
		t.Fatalf("retraction cascade removed %d tuples, want 2", got)
	}
	if snap := snapshotEngine(e); snap != "" {
		t.Fatalf("tables after the retraction:\n%s", snap)
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
	e.CompleteRetract()
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
		retract(e, e.BeginRetractFacts(src(want-1)))
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
		step := func(insert, cut []data.Tuple) {
			for _, tu := range insert {
				e.InsertFact(tu)
			}
			if len(cut) > 0 {
				retract(e, e.BeginRetractFacts(cut...))
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
