package engine

import (
	"fmt"
	"strings"
	"testing"

	"provnet/internal/data"
)

// The hash-keyed table, dependency index, and retraction sets all rely on
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
		tbl.Insert(tup("p", i, fmt.Sprintf("v%d", i)), nil, 0)
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
		tbl.Insert(tup("route", i, "old"), nil, 0)
	}
	// Replace every row through the primary key; chains must replace the
	// matching row only.
	for i := 0; i < rows; i++ {
		_, st := tbl.Insert(tup("route", i, "new"), nil, 1)
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
// hash-keyed structure (dependency index, withdrawal sets, rederive
// sets, aggregate groups) through its equality fallback.
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
				e.RetractFacts(tu)
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
					e.RetractFacts(link)
				case 2:
					for _, ex := range e.RunToFixpoint() {
						fmt.Fprintf(&exports, "%s<-%s\n", ex.Dest, ex.Tuple)
					}
				case 3:
					now += float64(c % 8)
					e.Expire(now)
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
