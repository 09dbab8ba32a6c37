package engine

import (
	"fmt"
	"slices"
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

// tableInsert stores tu in tbl at time now and enforces its size bound,
// as the engine's insert does.
func tableInsert(tbl *Table, tu data.Tuple, now float64) (*Entry, InsertStatus) {
	en, _, st := tbl.insertHashed(tu, nil, now, 0, false)
	tbl.evict()
	return en, st
}

func TestTableInsertStatuses(t *testing.T) {
	tbl := NewTable("p", nil, -1, -1)
	e1, st := tableInsert(tbl, tup("p", 1, "x"), 0)
	if st != InsertNew || e1 == nil {
		t.Fatalf("first insert: %v", st)
	}
	e2, st := tableInsert(tbl, tup("p", 1, "x"), 5)
	if st != InsertDuplicate || e2 != e1 {
		t.Fatalf("duplicate insert: %v", st)
	}
	if e2.Created != 5 {
		t.Error("duplicate insert must refresh soft state")
	}
	// Identity-keyed table: different tuple is a new row, not replacement.
	_, st = tableInsert(tbl, tup("p", 1, "y"), 0)
	if st != InsertNew {
		t.Fatalf("distinct tuple: %v", st)
	}
	if tbl.Size() != 2 {
		t.Errorf("size = %d", tbl.Size())
	}
}

func TestTableKeyedReplacement(t *testing.T) {
	tbl := NewTable("route", []int{0}, -1, -1)
	tableInsert(tbl, tup("route", 7, "old"), 0)
	en, st := tableInsert(tbl, tup("route", 7, "new"), 1)
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
	tableInsert(tbl, tup("p", 1), 0)
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
	tableInsert(tbl, tup("ev", 1), 0)
	tableInsert(tbl, tup("ev", 2), 5)
	if n := len(tbl.ExpireTuples(9)); n != 0 {
		t.Fatalf("premature expiry: %d", n)
	}
	if n := len(tbl.ExpireTuples(12)); n != 1 {
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
	hEn, _ := tableInsert(hard, tup("h", 1), 0)
	if _, ok := hEn.ExpiresAt(); ok {
		t.Error("hard state never expires")
	}
}

// bucketRows lists the rows of the bucket a probe of the index in slot
// (columns cols) for vals walks, dead and colliding ones included.
func bucketRows(tbl *Table, slot int, cols []int, vals []data.Value) []*Entry {
	var rows []*Entry
	for n := tbl.bucket(slot, cols, data.HashValues(vals)); n != nil; n = n.next {
		rows = append(rows, n.en)
	}
	return rows
}

// lookup collects the live rows whose columns cols equal vals the way a
// join probe walks them: the bucket of the index in slot (the whole
// order for no columns), skipping dead, expired and merely colliding
// rows.
func lookup(tbl *Table, slot int, cols []int, vals []data.Value, now float64) []*Entry {
	rows := tbl.order
	if len(cols) > 0 {
		rows = bucketRows(tbl, slot, cols, vals)
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
		tableInsert(tbl, tup("edge", fmt.Sprintf("n%d", i%10), i), 0)
	}
	// Index on column 0.
	hits := lookup(tbl, 0, []int{0}, []data.Value{data.Str("n3")}, 0)
	if len(hits) != 10 {
		t.Fatalf("lookup hits = %d", len(hits))
	}
	for _, en := range hits {
		if en.Tuple.Args[0].Str != "n3" {
			t.Fatalf("wrong hit %v", en.Tuple)
		}
	}
	// Index maintained across subsequent inserts.
	tableInsert(tbl, tup("edge", "n3", 999), 0)
	if got := len(lookup(tbl, 0, []int{0}, []data.Value{data.Str("n3")}, 0)); got != 11 {
		t.Fatalf("after insert: %d", got)
	}
	// Composite index.
	two := lookup(tbl, 1, []int{0, 1}, []data.Value{data.Str("n3"), data.Int(3)}, 0)
	if len(two) != 1 {
		t.Fatalf("composite lookup = %d", len(two))
	}
	// Empty columns scans everything.
	if got := len(lookup(tbl, 0, nil, nil, 0)); got != 101 {
		t.Fatalf("scan = %d", got)
	}
}

func TestTableLookupSkipsExpiredAndDead(t *testing.T) {
	tbl := NewTable("p", nil, 10, -1)
	tableInsert(tbl, tup("p", "k", 1), 0)
	tableInsert(tbl, tup("p", "k", 2), 5)
	// Build index before expiry.
	if got := len(lookup(tbl, 0, []int{0}, []data.Value{data.Str("k")}, 0)); got != 2 {
		t.Fatalf("pre-expiry hits = %d", got)
	}
	tbl.ExpireTuples(12)
	if got := len(lookup(tbl, 0, []int{0}, []data.Value{data.Str("k")}, 12)); got != 1 {
		t.Fatalf("post-expiry hits = %d", got)
	}
}

func TestTableMaxSizeEvictsOldest(t *testing.T) {
	tbl := NewTable("log", nil, -1, 3)
	for i := 0; i < 6; i++ {
		tableInsert(tbl, tup("log", i), float64(i))
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

// TestIndexSlots pins the slots Compile fixes: per predicate, one per
// distinct probed column set, in the order the rules first probe them,
// shared by every plan and prune that probes the same columns.
func TestIndexSlots(t *testing.T) {
	e := newNode(t, "a", `
		r1 reach(@S,D) :- link(@S,D).
		r2 reach(@S,D) :- link(@S,Z), reach(@Z,D).
		r3 twoHop(@S,D) :- link(@S,Z), link(@Z,D).
	`, false)
	p := e.Program()
	for pred, sets := range p.slots {
		for i, a := range sets {
			if p.indexSlot(pred, a) != i {
				t.Errorf("%s: columns %v do not map back to slot %d", pred, a, i)
			}
			for _, b := range sets[:i] {
				if slices.Equal(a, b) {
					t.Errorf("%s: columns %v hold two slots", pred, a)
				}
			}
		}
	}
	if len(p.slots["link"]) == 0 {
		t.Fatal("no index slot for link's join probes")
	}
	n := len(p.slots["link"])
	if got := p.indexSlot("link", []int{9}); got != n {
		t.Errorf("a new column set takes slot %d, want %d", got, n)
	}
}

// TestIndexBucketKeepsInsertionOrder pins the order a probe walks an
// index bucket in: the rows' insertion order, with 1-bit hashes putting
// rows of different column values on one chain, for an index built over
// stored rows and then grown by inserts, and after compact has unlinked
// the dead rows from the middle, the head and the tail of a chain.
func TestIndexBucketKeepsInsertionOrder(t *testing.T) {
	defer data.LimitHashBitsForTesting(1)()
	tbl := NewTable("p", nil, -1, -1)
	cols := []int{0}
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			tableInsert(tbl, tup("p", fmt.Sprintf("k%d", i%5), i), 0)
		}
	}
	check := func(stage string) {
		t.Helper()
		for k := 0; k < 5; k++ {
			vals := []data.Value{data.Str(fmt.Sprintf("k%d", k))}
			h := data.HashValues(vals)
			var want []*Entry
			for _, en := range tbl.order {
				if en.Tuple.HashArgs(cols) == h {
					want = append(want, en)
				}
			}
			if got := bucketRows(tbl, 0, cols, vals); !slices.Equal(got, want) {
				t.Fatalf("%s: bucket of k%d walks %d rows out of insertion order (want %d)", stage, k, len(got), len(want))
			}
		}
	}
	insert(0, 20)
	check("built")
	insert(20, 40)
	check("grown")
	for i := 0; i < 40; i += 3 { // rows 0 and 39 head and end a chain
		tbl.kill(tbl.Get(tup("p", fmt.Sprintf("k%d", i%5), i)))
	}
	check("killed")
	tbl.compact()
	for _, en := range tbl.order {
		if en.Dead {
			t.Fatal("compact left a dead row in the order")
		}
	}
	check("compacted")
	insert(40, 60)
	check("grown after compact")
}
