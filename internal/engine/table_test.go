package engine

import (
	"fmt"
	"testing"

	"provnet/internal/data"
)

func tup(pred string, args ...any) data.Tuple {
	vs := make([]data.Value, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case int:
			vs[i] = data.Int(int64(x))
		case string:
			vs[i] = data.Str(x)
		default:
			panic("unsupported")
		}
	}
	return data.NewTuple(pred, vs...)
}

func TestTableInsertStatuses(t *testing.T) {
	tbl := NewTable("p", nil, -1, -1)
	e1, st := tbl.Insert(tup("p", 1, "x"), nil, 0)
	if st != InsertNew || e1 == nil {
		t.Fatalf("first insert: %v", st)
	}
	e2, st := tbl.Insert(tup("p", 1, "x"), nil, 5)
	if st != InsertDuplicate || e2 != e1 {
		t.Fatalf("duplicate insert: %v", st)
	}
	if e2.Created != 5 {
		t.Error("duplicate insert must refresh soft state")
	}
	// Identity-keyed table: different tuple is a new row, not replacement.
	_, st = tbl.Insert(tup("p", 1, "y"), nil, 0)
	if st != InsertNew {
		t.Fatalf("distinct tuple: %v", st)
	}
	if tbl.Size() != 2 {
		t.Errorf("size = %d", tbl.Size())
	}
}

func TestTableKeyedReplacement(t *testing.T) {
	tbl := NewTable("route", []int{0}, -1, -1)
	tbl.Insert(tup("route", 7, "old"), nil, 0)
	en, st := tbl.Insert(tup("route", 7, "new"), nil, 1)
	if st != InsertReplaced {
		t.Fatalf("status = %v", st)
	}
	if tbl.Size() != 1 {
		t.Errorf("size = %d", tbl.Size())
	}
	if got := tbl.Get(tup("route", 7, "new")); got != en {
		t.Error("new row must be retrievable")
	}
	if tbl.Get(tup("route", 7, "old")) != nil {
		t.Error("old row must be gone")
	}
}

func TestTableDelete(t *testing.T) {
	tbl := NewTable("p", nil, -1, -1)
	tbl.Insert(tup("p", 1), nil, 0)
	tbl.kill(tbl.Get(tup("p", 1)))
	if tbl.Get(tup("p", 1)) != nil {
		t.Fatal("killed row still found")
	}
	if tbl.Size() != 0 {
		t.Error("size after delete")
	}
}

func TestTableExpiry(t *testing.T) {
	tbl := NewTable("ev", nil, 10, -1)
	tbl.Insert(tup("ev", 1), nil, 0)
	tbl.Insert(tup("ev", 2), nil, 5)
	if n := tbl.Expire(9); n != 0 {
		t.Fatalf("premature expiry: %d", n)
	}
	if n := tbl.Expire(12); n != 1 {
		t.Fatalf("expired = %d", n)
	}
	live := tbl.Live(12)
	if len(live) != 1 || live[0].Args[0].Int != 2 {
		t.Fatalf("live = %v", live)
	}
	// ExpiresAt on entries.
	en := tbl.Get(tup("ev", 2))
	exp, ok := en.ExpiresAt()
	if !ok || exp != 15 {
		t.Errorf("ExpiresAt = %v, %v", exp, ok)
	}
	hard := NewTable("h", nil, -1, -1)
	hEn, _ := hard.Insert(tup("h", 1), nil, 0)
	if _, ok := hEn.ExpiresAt(); ok {
		t.Error("hard state never expires")
	}
}

// lookup collects the live rows whose columns cols equal vals the way a
// join probe walks them: the index bucket (the whole order for no
// columns), skipping dead, expired and merely colliding rows.
func lookup(tbl *Table, cols []int, vals []data.Value, now float64) []*Entry {
	rows := tbl.order
	if len(cols) > 0 {
		rows = tbl.bucket(colSig(cols), cols, data.HashValues(vals))
	}
	var out []*Entry
	for _, en := range rows {
		if en.Dead || en.expired(now) {
			continue
		}
		match := true
		for i, c := range cols {
			match = match && en.Tuple.Args[c].Equal(vals[i])
		}
		if match {
			out = append(out, en)
		}
	}
	return out
}

func TestTableLookupIndex(t *testing.T) {
	tbl := NewTable("edge", nil, -1, -1)
	for i := 0; i < 100; i++ {
		tbl.Insert(tup("edge", fmt.Sprintf("n%d", i%10), i), nil, 0)
	}
	// Index on column 0.
	hits := lookup(tbl, []int{0}, []data.Value{data.Str("n3")}, 0)
	if len(hits) != 10 {
		t.Fatalf("lookup hits = %d", len(hits))
	}
	for _, en := range hits {
		if en.Tuple.Args[0].Str != "n3" {
			t.Fatalf("wrong hit %v", en.Tuple)
		}
	}
	// Index maintained across subsequent inserts.
	tbl.Insert(tup("edge", "n3", 999), nil, 0)
	if got := len(lookup(tbl, []int{0}, []data.Value{data.Str("n3")}, 0)); got != 11 {
		t.Fatalf("after insert: %d", got)
	}
	// Composite index.
	two := lookup(tbl, []int{0, 1}, []data.Value{data.Str("n3"), data.Int(3)}, 0)
	if len(two) != 1 {
		t.Fatalf("composite lookup = %d", len(two))
	}
	// Empty columns scans everything.
	if got := len(lookup(tbl, nil, nil, 0)); got != 101 {
		t.Fatalf("scan = %d", got)
	}
}

func TestTableLookupSkipsExpiredAndDead(t *testing.T) {
	tbl := NewTable("p", nil, 10, -1)
	tbl.Insert(tup("p", "k", 1), nil, 0)
	tbl.Insert(tup("p", "k", 2), nil, 5)
	// Build index before expiry.
	if got := len(lookup(tbl, []int{0}, []data.Value{data.Str("k")}, 0)); got != 2 {
		t.Fatalf("pre-expiry hits = %d", got)
	}
	tbl.Expire(12)
	if got := len(lookup(tbl, []int{0}, []data.Value{data.Str("k")}, 12)); got != 1 {
		t.Fatalf("post-expiry hits = %d", got)
	}
}

func TestTableMaxSizeEvictsOldest(t *testing.T) {
	tbl := NewTable("log", nil, -1, 3)
	for i := 0; i < 6; i++ {
		tbl.Insert(tup("log", i), nil, float64(i))
	}
	if tbl.Size() != 3 {
		t.Fatalf("size = %d", tbl.Size())
	}
	for i := 0; i < 3; i++ {
		if tbl.Get(tup("log", i)) != nil {
			t.Errorf("old row %d must be evicted", i)
		}
	}
	for i := 3; i < 6; i++ {
		if tbl.Get(tup("log", i)) == nil {
			t.Errorf("recent row %d must survive", i)
		}
	}
}

func TestColSigDistinct(t *testing.T) {
	sets := [][]int{{0}, {1}, {1, 3}, {3, 1}, {2, 0, 5}, {13}, {1, 3 + 10}}
	seen := map[string][]int{}
	for _, cols := range sets {
		sig := colSig(cols)
		if prev, dup := seen[sig]; dup {
			t.Fatalf("colSig collision: %v and %v both map to %q", prev, cols, sig)
		}
		seen[sig] = cols
	}
}
