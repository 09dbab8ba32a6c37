package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"provnet/internal/data"
)

// The hash-keyed table, aggregate state and retraction sets all rely on
// the same invariant: a 64-bit structural hash narrows the search, and an
// equality check settles it. These tests squeeze every hash into a
// handful of bits so collision chains are the norm, then require the
// results to match the unmasked run bit for bit.

func TestTableForcedCollisions(t *testing.T) {
	restore := data.LimitHashBitsForTesting(2)
	defer restore()

	tbl := NewTable("p", nil, -1, -1)
	const rows = 64
	for i := 0; i < rows; i++ {
		tableInsert(tbl, tup("p", i, fmt.Sprintf("v%d", i)), 0)
	}
	if tbl.Size() != rows {
		t.Fatalf("size = %d, want %d (collisions must not merge distinct rows)", tbl.Size(), rows)
	}
	for i := 0; i < rows; i++ {
		if tbl.Get(tup("p", i, fmt.Sprintf("v%d", i))) == nil {
			t.Fatalf("row %d lost in collision chain", i)
		}
	}
	if tbl.Get(tup("p", 0, "absent")) != nil {
		t.Fatal("collision chain returned a non-equal tuple")
	}
	for i := 0; i < rows; i += 2 {
		en := tbl.Get(tup("p", i, fmt.Sprintf("v%d", i)))
		if en == nil {
			t.Fatalf("row %d not found under collisions", i)
		}
		tbl.kill(en)
	}
	if tbl.Size() != rows/2 {
		t.Fatalf("size after deletes = %d, want %d", tbl.Size(), rows/2)
	}
	for i := 1; i < rows; i += 2 {
		if tbl.Get(tup("p", i, fmt.Sprintf("v%d", i))) == nil {
			t.Fatalf("surviving row %d lost by a colliding delete", i)
		}
	}
}

func TestTableKeyedForcedCollisions(t *testing.T) {
	restore := data.LimitHashBitsForTesting(1)
	defer restore()

	tbl := NewTable("route", []int{0}, -1, -1)
	const rows = 16
	for i := 0; i < rows; i++ {
		tableInsert(tbl, tup("route", i, "old"), 0)
	}
	// Replace every row through the primary key; chains must replace the
	// matching row only.
	for i := 0; i < rows; i++ {
		_, st := tableInsert(tbl, tup("route", i, "new"), 1)
		if st != InsertReplaced {
			t.Fatalf("row %d: status %v, want replacement", i, st)
		}
	}
	if tbl.Size() != rows {
		t.Fatalf("size = %d, want %d", tbl.Size(), rows)
	}
	for i := 0; i < rows; i++ {
		if tbl.Get(tup("route", i, "new")) == nil {
			t.Fatalf("replaced row %d missing", i)
		}
		if tbl.Get(tup("route", i, "old")) != nil {
			t.Fatalf("stale row %d still present", i)
		}
	}
}

// TestRetractForcedCollisionsMatchesUnmasked replays an insert/retract
// script twice — once with full hashes, once with 2-bit hashes — and
// requires identical tables and stats. The masked run drives every
// hash-keyed structure (table rows, withdrawal sets, rederive sets,
// aggregate groups) through its equality fallback.
func TestRetractForcedCollisionsMatchesUnmasked(t *testing.T) {
	const prog = `
materialize(link, infinity, infinity, keys(1,2,3)).
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(best, infinity, infinity, keys(1,2)).
c1 cost(@N,Y,C) :- link(@N,Y,C).
b1 best(@N,Y,min<C>) :- cost(@N,Y,C).
`
	type op struct {
		retract bool
		y, c    int
	}
	script := []op{
		{false, 1, 5}, {false, 1, 3}, {false, 2, 7}, {false, 2, 2},
		{true, 1, 3}, {false, 3, 9}, {true, 2, 2}, {false, 1, 1},
		{true, 1, 5}, {true, 3, 9},
	}
	run := func() (string, Stats) {
		e := cappedEngine(t, "n", prog, 4)
		for _, o := range script {
			tu := data.NewTuple("link", data.Str("n"),
				data.Str(fmt.Sprintf("y%d", o.y)), data.Int(int64(o.c)))
			if o.retract {
				retract(e, e.BeginRetractFacts(tu))
			} else {
				e.InsertFact(tu)
			}
			e.RunToFixpoint()
		}
		return snapshotEngine(e), e.Stats
	}

	wantSnap, wantStats := run()
	restore := data.LimitHashBitsForTesting(2)
	defer restore()
	gotSnap, gotStats := run()
	if gotSnap != wantSnap {
		t.Fatalf("masked run diverged\n--- unmasked ---\n%s--- masked ---\n%s", wantSnap, gotSnap)
	}
	if gotStats != wantStats {
		t.Fatalf("stats diverged: unmasked %+v, masked %+v", wantStats, gotStats)
	}
}

// FuzzRetractCollisions generalises the pin above to fuzz input: one op
// script of inserts, retractions, fixpoints and expiry (shadow cap 2, so
// eviction and the re-derivation fallback run too) is replayed with full
// hashes and with every structural hash squeezed to 3 bits, and the two
// runs must agree on the table snapshot after every step, on every
// fixpoint's exports (order included), and on the final stats.
func FuzzRetractCollisions(f *testing.F) {
	f.Add([]byte{0, 1, 2, 8, 0, 5, 1, 1, 2, 8, 3, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 2, 8, 2, 0, 3, 1, 0, 1, 8, 3, 7, 0, 9, 9})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 1, 1, 8, 0, 3, 3, 3, 2, 2, 0, 4, 4})
	f.Add([]byte{0, 1, 2, 8, 0, 5, 1, 1, 2, 8, 3, 0, 0, 3, 3, 1, 1, 2})
	const fuzzProg = `
materialize(link, 16, infinity, keys(1,2,3)).
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(m, infinity, infinity, keys(1,2)).
aggSelection(cost, keys(1,2), min, 3).
c1 cost(@N,Y,C) :- link(@N,Y,C).
m1 m(@N,Y,min<C>) :- cost(@N,Y,C).
`
	f.Fuzz(func(t *testing.T, ops []byte) {
		// run returns one line per step: the exports of a fixpoint step
		// (empty otherwise) and the table snapshot after it.
		run := func() ([]string, Stats) {
			e := cappedEngine(t, "n", fuzzProg, 2)
			now := 0.0
			var steps []string
			for i := 0; i+2 < len(ops); i += 3 {
				op, y, c := ops[i]%4, ops[i+1], ops[i+2]
				link := data.NewTuple("link", data.Str("n"),
					data.Str(fmt.Sprintf("y%d", y%3)), data.Int(int64(c%9)))
				var exports strings.Builder
				switch op {
				case 0:
					e.InsertFact(link)
				case 1:
					retract(e, e.BeginRetractFacts(link))
				case 2:
					for _, ex := range e.RunToFixpoint() {
						fmt.Fprintf(&exports, "%s<-%s\n", ex.Dest, ex.Tuple)
					}
				case 3:
					now += float64(c % 8)
					e.Expire(now)
					e.CompleteRetract()
				}
				steps = append(steps, exports.String()+"--\n"+snapshotEngine(e))
			}
			e.RunToFixpoint()
			steps = append(steps, snapshotEngine(e))
			return steps, e.Stats
		}

		wantSteps, wantStats := run()
		restore := data.LimitHashBitsForTesting(3)
		defer restore()
		gotSteps, gotStats := run()
		for i := range wantSteps {
			if gotSteps[i] != wantSteps[i] {
				t.Fatalf("step %d diverged\n--- unmasked ---\n%s--- masked ---\n%s", i, wantSteps[i], gotSteps[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("stats diverged: unmasked %+v, masked %+v", wantStats, gotStats)
		}
	})
}

// chainCase drives one chained structure through its own insert and
// remove paths; elements are numbered, and id tells which one a struct is.
type chainCase[T any] struct {
	chain  func() chain[T]
	add    func(i int)
	remove func(i int)
	has    func(i int) bool
	id     func(x *T) int
}

// unlinkHeadMiddleTail adds twelve elements under a 1-bit hash, so one of
// the two chains holds at least six, then removes that chain's head, a
// middle element and its tail through the structure's own remove path.
// Before each removal the element must sit where intended; after it the
// element must be gone, the rest still found, and the chain's order kept.
func unlinkHeadMiddleTail[T any](t *testing.T, c chainCase[T]) {
	t.Helper()
	defer data.LimitHashBitsForTesting(1)()
	const n = 12
	for i := 0; i < n; i++ {
		c.add(i)
	}
	var h uint64 // the longest chain's hash
	ids := func() []int {
		var ids []int
		for x := c.chain().first(h); x != nil; x = *c.chain().link(x) {
			ids = append(ids, c.id(x))
		}
		return ids
	}
	for k := range c.chain().m {
		if chainLen(c.chain(), k) > chainLen(c.chain(), h) {
			h = k
		}
	}
	order := ids()
	if len(order) < 6 {
		t.Fatalf("longest chain %v, want at least 6 of %d under a 1-bit hash", order, n)
	}
	gone := map[int]bool{}
	for _, at := range []string{"head", "middle", "tail"} {
		pos := map[string]int{"head": 0, "middle": len(order) / 2, "tail": len(order) - 1}[at]
		victim := order[pos]
		c.remove(victim)
		gone[victim] = true
		want := append(append([]int(nil), order[:pos]...), order[pos+1:]...)
		if got := ids(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after unlinking %d at the %s: chain %v, want %v", victim, at, got, want)
		}
		order = want
		for i := 0; i < n; i++ {
			if c.has(i) == gone[i] {
				t.Fatalf("after unlinking %d at the %s: element %d found = %v", victim, at, i, c.has(i))
			}
		}
	}
}

func chainLen[T any](c chain[T], h uint64) int {
	n := 0
	for x := c.first(h); x != nil; x = *c.link(x) {
		n++
	}
	return n
}

// TestChainUnlinkHeadMiddleTail runs unlinkHeadMiddleTail over every
// structure that removes from its chain: table rows, the retraction set,
// aggregate-selection groups, shadow rows and aggregate contributions.
func TestChainUnlinkHeadMiddleTail(t *testing.T) {
	t.Run("table rows", func(t *testing.T) {
		tbl := NewTable("p", nil, -1, -1)
		unlinkHeadMiddleTail(t, chainCase[Entry]{
			chain:  func() chain[Entry] { return tbl.rows },
			add:    func(i int) { tableInsert(tbl, tup("p", i), 0) },
			remove: func(i int) { tbl.kill(tbl.Get(tup("p", i))) },
			has:    func(i int) bool { return tbl.Get(tup("p", i)) != nil },
			id:     func(en *Entry) int { return int(en.Tuple.Args[0].Int) },
		})
	})
	t.Run("retraction set", func(t *testing.T) {
		// Elements 2k and 2k+1 pair one tuple with two destinations: they
		// share a hash, and only the destination tells them apart.
		s := newPairSet()
		pairOf := func(i int) (string, data.Tuple) { return fmt.Sprintf("d%d", i%2), tup("p", i/2) }
		unlinkHeadMiddleTail(t, chainCase[pair]{
			chain:  func() chain[pair] { return s.pairs },
			add:    func(i int) { s.add(pairOf(i)) },
			remove: func(i int) { s.remove(pairOf(i)) },
			has:    func(i int) bool { return s.has(pairOf(i)) },
			id:     func(p *pair) int { return 2*int(p.t.Args[0].Int) + int(p.dest[1]-'0') },
		})
		if s.len() != 9 {
			t.Errorf("set holds %d pairs, want 9", s.len())
		}
	})
	t.Run("prune groups", func(t *testing.T) {
		ps := &pruneSpec{pruneDecl: pruneDecl{keyCols: []int{0}}, groups: newChain((*pruneGroupState).link)}
		unlinkHeadMiddleTail(t, chainCase[pruneGroupState]{
			chain:  func() chain[pruneGroupState] { return ps.groups },
			add:    func(i int) { ps.group(tup("p", i, 0)) },
			remove: func(i int) { ps.maybeDrop(ps.findGroup(tup("p", i, 0))) },
			has:    func(i int) bool { return ps.findGroup(tup("p", i, 0)) != nil },
			id:     func(g *pruneGroupState) int { return int(g.vals[0].Int) },
		})
	})
	t.Run("shadow rows", func(t *testing.T) {
		ps := &pruneSpec{pruneDecl: pruneDecl{keyCols: []int{0}, col: 1, min: true}, cap: defaultShadowCap,
			groups: newChain((*pruneGroupState).link), shadow: newChain((*shadowRow).link), tbl: NewTable("p", nil, -1, -1)}
		g := ps.group(tup("p", 0, 0))
		unlinkHeadMiddleTail(t, chainCase[shadowRow]{
			chain:  func() chain[shadowRow] { return ps.shadow },
			add:    func(i int) { ps.addShadowRow(g, tup("p", 0, i), nil, supportFrom(""), false) },
			remove: func(i int) { ps.dropShadow(g, tup("p", 0, i)) },
			has:    func(i int) bool { return ps.findShadow(g, tup("p", 0, i)) != nil },
			id:     func(r *shadowRow) int { return int(r.tuple.Args[1].Int) },
		})
		if g.nshadow != 9 {
			t.Errorf("group counts %d shadow rows, want 9", g.nshadow)
		}
	})
	t.Run("aggregate contributions", func(t *testing.T) {
		// A contribution leaves when a retraction recomputes its aggregate,
		// which rebuilds the chain from the live bodies in table order.
		e := cappedEngine(t, "n", `
materialize(link, infinity, infinity, keys(1,2)).
a1 cnt(@N,count<Y>) :- link(@N,Y).
`, 0)
		link := func(i int) data.Tuple { return data.NewTuple("link", data.Str("n"), data.Int(int64(i))) }
		unlinkHeadMiddleTail(t, chainCase[contribution]{
			chain: func() chain[contribution] { return e.aggState["a1"].contribs },
			add: func(i int) {
				e.InsertFact(link(i))
				e.RunToFixpoint()
			},
			remove: func(i int) {
				retract(e, e.BeginRetractFacts(link(i)))
				e.RunToFixpoint()
			},
			has: func(i int) bool {
				for _, c := range e.aggState["a1"].contribs.m {
					for ; c != nil; c = c.next {
						if c.body[0].Tuple.Equal(link(i)) {
							return true
						}
					}
				}
				return false
			},
			id: func(c *contribution) int { return int(c.body[0].Tuple.Args[1].Int) },
		})
		if got := e.Tuples("cnt"); len(got) != 1 || got[0].Args[1].Int != 9 {
			t.Errorf("cnt = %v, want one row counting 9", got)
		}
	})
}

// TestChainsForcedCollisionsMatchUnmasked replays a seeded script of
// link inserts and retractions through an aggregate-selection program
// with a min aggregate and an exported head, once with full hashes and
// once with 1-bit hashes, and requires the same tables, exports and
// withdrawals after every step and the same stats. The masked run must
// put at least three members on one chain of each structure — table
// rows, prune groups, shadow rows, aggregate groups and contributions,
// and a retraction's sets (censused
// between its two phases) — and remove members of each again (aggregate
// state and retraction sets vanish when a recomputation or the next
// retraction replaces them).
func TestChainsForcedCollisionsMatchUnmasked(t *testing.T) {
	const prog = `
materialize(link, infinity, infinity, keys(1,2,3)).
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(m, infinity, infinity, keys(1,2)).
aggSelection(cost, keys(1,2), min, 3).
c1 cost(@N,Y,C) :- link(@N,Y,C).
m1 m(@N,Y,min<C>) :- cost(@N,Y,C).
s1 seen(@Y,N) :- link(@N,Y,C).
s2 near(@N,Y) :- link(@N,Y,C).
`
	kinds := []string{"table rows", "prune groups", "shadow rows", "aggregate groups",
		"aggregate contributions", "retraction sets"}
	type census struct{ longest, removed int }
	run := func(masked bool) ([]string, Stats, map[string]*census) {
		e := cappedEngine(t, "n", prog, 0)
		rng := rand.New(rand.NewSource(29))
		seen := map[string]map[string]bool{}
		stats := map[string]*census{}
		// take records the keys on one structure's chains, its longest
		// chain, and how many keys left since the last step.
		take := func(kind string, keys map[string]bool, longest int) {
			c := stats[kind]
			if c == nil {
				c = &census{}
				stats[kind] = c
			}
			c.longest = max(c.longest, longest)
			for k := range seen[kind] {
				if !keys[k] {
					c.removed++
				}
			}
			seen[kind] = keys
		}
		walk := func(kind string, heads []func(yield func(string)) int) {
			keys, longest := map[string]bool{}, 0
			for _, h := range heads {
				longest = max(longest, h(func(k string) { keys[k] = true }))
			}
			take(kind, keys, longest)
		}
		census := func() {
			var rows, groups, shadows, aggs, contribs []func(func(string)) int
			for _, name := range []string{"link", "cost", "m"} {
				if tbl := e.tables[name]; tbl != nil {
					for _, en := range tbl.rows.m {
						rows = append(rows, chainKeys(en, func(x *Entry) *Entry { return x.next }, func(x *Entry) string { return x.Tuple.String() }))
					}
				}
			}
			for _, g := range e.prunes["cost"].groups.m {
				groups = append(groups, chainKeys(g, func(x *pruneGroupState) *pruneGroupState { return x.next }, func(x *pruneGroupState) string { return fmt.Sprint(x.vals) }))
			}
			for _, r := range e.prunes["cost"].shadow.m {
				shadows = append(shadows, chainKeys(r, func(x *shadowRow) *shadowRow { return x.next }, func(x *shadowRow) string { return x.tuple.String() }))
			}
			if st := e.aggState["m1"]; st != nil {
				for _, g := range st.groups.m {
					aggs = append(aggs, chainKeys(g, func(x *aggGroup) *aggGroup { return x.next }, func(x *aggGroup) string { return fmt.Sprint(x.groupArgs[:2]) }))
				}
				for _, c := range st.contribs.m {
					contribs = append(contribs, chainKeys(c, func(x *contribution) *contribution { return x.next }, func(x *contribution) string {
						return fmt.Sprint(x.g.groupArgs[:2], x.body[0].Tuple)
					}))
				}
			}
			walk("table rows", rows)
			walk("prune groups", groups)
			walk("shadow rows", shadows)
			walk("aggregate groups", aggs)
			walk("aggregate contributions", contribs)
		}
		// retractCensus walks the deleted and shipped sets of the retraction
		// in progress.
		retractCensus := func() {
			var sets []func(func(string)) int
			for name, s := range map[string]*pairSet{"deleted": e.pend.deleted, "shipped": e.pend.shipped} {
				for _, p := range s.pairs.m {
					sets = append(sets, chainKeys(p, func(x *pair) *pair { return x.next }, func(x *pair) string {
						return name + " " + x.dest + ":" + x.t.String()
					}))
				}
			}
			walk("retraction sets", sets)
		}
		if masked {
			defer data.LimitHashBitsForTesting(1)()
		}
		var steps []string
		for i := 0; i < 400; i++ {
			link := data.NewTuple("link", data.Str("n"),
				data.Str(fmt.Sprintf("y%d", rng.Intn(8))), data.Int(int64(rng.Intn(9))))
			var out strings.Builder
			if rng.Intn(2) == 0 {
				ws := e.BeginRetractFacts(link)
				retractCensus()
				for _, w := range append(ws, e.CompleteRetract()...) {
					fmt.Fprintf(&out, "-%s<-%s\n", w.Dest, w.Tuple)
				}
			} else {
				e.InsertFact(link)
			}
			for _, ex := range e.RunToFixpoint() {
				fmt.Fprintf(&out, "+%s<-%s\n", ex.Dest, ex.Tuple)
			}
			steps = append(steps, out.String()+"--\n"+snapshotEngine(e))
			census()
		}
		return steps, e.Stats, stats
	}

	wantSteps, wantStats, _ := run(false)
	gotSteps, gotStats, chains := run(true)
	for i := range wantSteps {
		if gotSteps[i] != wantSteps[i] {
			t.Fatalf("step %d diverged\n--- unmasked ---\n%s--- masked ---\n%s", i, wantSteps[i], gotSteps[i])
		}
	}
	if gotStats != wantStats {
		t.Fatalf("stats diverged: unmasked %+v, masked %+v", wantStats, gotStats)
	}
	for _, kind := range kinds {
		c := chains[kind]
		if c != nil {
			t.Logf("%s: longest chain %d, %d removed", kind, c.longest, c.removed)
		}
		if c == nil || c.longest < 3 || c.removed == 0 {
			t.Errorf("%s under a 1-bit hash: %+v, want a chain of 3 or more and removals", kind, c)
		}
	}
}

// chainKeys returns a walk of the chain from x: it yields each member's
// key and returns the chain's length.
func chainKeys[T any](x *T, next func(*T) *T, key func(*T) string) func(func(string)) int {
	return func(yield func(string)) int {
		n := 0
		for ; x != nil; x = next(x) {
			yield(key(x))
			n++
		}
		return n
	}
}
