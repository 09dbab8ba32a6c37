package provenance

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"testing"

	"provnet/internal/data"
)

func TestStoreRecordAndGet(t *testing.T) {
	s := NewStore("a")
	tu := data.NewTuple("link", data.Str("a"), data.Str("b"))
	s.RecordBase(tu, 1)
	e, ok := s.Get(KeyOf(tu))
	if !ok || !e.Tuple.Equal(tu) || len(e.Derivs) != 0 {
		t.Fatalf("entry = %+v", e)
	}
	head := data.NewTuple("reachable", data.Str("a"), data.Str("b"))
	if key := s.RecordDeriv(head, "r1", []Ref{{Node: "a", Key: KeyOf(tu)}}, 2); key != KeyOf(head) {
		t.Fatalf("RecordDeriv key = %q, want KeyOf(head)", key)
	}
	// Duplicate derivation dedups (the firing time is not part of it).
	s.RecordDeriv(head, "r1", []Ref{{Node: "a", Key: KeyOf(tu)}}, 3)
	if got, _ := s.Get(KeyOf(head)); len(got.Derivs) != 1 {
		t.Fatalf("derivs = %d", len(got.Derivs))
	}
	// A firing that differs in one child is a second derivation.
	s.RecordDeriv(head, "r1", []Ref{{Node: "b", Key: KeyOf(tu)}}, 4)
	if got, _ := s.Get(KeyOf(head)); len(got.Derivs) != 2 {
		t.Fatalf("derivs = %d, want 2", len(got.Derivs))
	}
	if s.OnlineCount() != 2 {
		t.Errorf("online count = %d", s.OnlineCount())
	}
}

func TestStoreOrigins(t *testing.T) {
	s := NewStore("b")
	tu := data.NewTuple("reachable", data.Str("a"), data.Str("c"))
	ref := Ref{Node: "a", Key: KeyOf(tu)}
	s.RecordOrigin(tu, ref, 1)
	s.RecordOrigin(tu, ref, 2) // a duplicate origin dedups
	if e, _ := s.Get(KeyOf(tu)); len(e.Origins) != 1 || e.Origins[0] != ref {
		t.Fatalf("origins = %v", e.Origins)
	}
}

// TestGetSnapshotsUnderWriter reads an entry's derivations and origins
// through Get and GetAny while a writer records more of both. Under
// -race it pins that the entry a reader gets is its own copy: reading
// the live entry's slice headers after the lock is released races the
// writer's append.
func TestGetSnapshotsUnderWriter(t *testing.T) {
	s := NewStore("a")
	s.EnableOffline(-1)
	head := data.NewTuple("p", data.Int(1))
	const n = 200
	rules := make([]string, n)
	for i := range rules {
		rules[i] = "r" + strconv.Itoa(i)
	}
	key := s.RecordDeriv(head, rules[0], nil, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < n; i++ {
			s.RecordDeriv(head, rules[i], nil, float64(i))
			s.RecordOrigin(head, Ref{Node: rules[i], Key: key}, float64(i))
		}
	}()
	check := func(e Entry, ok bool) {
		t.Helper()
		if !ok {
			t.Fatal("entry missing")
		}
		for i, d := range e.Derivs {
			if d.Rule != rules[i] {
				t.Fatalf("derivation %d is %s", i, d.Rule)
			}
		}
		for i, o := range e.Origins {
			if o.Node != rules[i+1] {
				t.Fatalf("origin %d is %s", i, o.Node)
			}
		}
	}
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		check(s.Get(key))
		check(s.GetAny(key))
	}
	if e, _ := s.Get(key); len(e.Derivs) != n || len(e.Origins) != n-1 {
		t.Fatalf("%d derivations and %d origins, want %d and %d", len(e.Derivs), len(e.Origins), n, n-1)
	}
}

func TestOfflineSurvivesForget(t *testing.T) {
	s := NewStore("a")
	s.EnableOffline(-1)
	tu := data.NewTuple("event", data.Str("a"), data.Int(1))
	s.RecordBase(tu, 5)
	s.Forget(KeyOf(tu))
	if _, ok := s.Get(KeyOf(tu)); ok {
		t.Fatal("online entry must be gone")
	}
	if _, ok := s.GetOffline(KeyOf(tu)); !ok {
		t.Fatal("offline entry must survive")
	}
	if _, ok := s.GetAny(KeyOf(tu)); !ok {
		t.Fatal("GetAny must fall back to offline")
	}
}

func TestOfflineDisabledByDefault(t *testing.T) {
	s := NewStore("a")
	tu := data.NewTuple("event", data.Str("a"), data.Int(1))
	s.RecordBase(tu, 5)
	s.Forget(KeyOf(tu))
	if _, ok := s.GetAny(KeyOf(tu)); ok {
		t.Fatal("no offline tier: entry should be gone")
	}
}

func TestAgeOutAndPin(t *testing.T) {
	s := NewStore("a")
	s.EnableOffline(10)
	t1 := data.NewTuple("event", data.Str("a"), data.Int(1))
	t2 := data.NewTuple("event", data.Str("a"), data.Int(2))
	s.RecordBase(t1, 0)
	s.RecordBase(t2, 0)
	s.Pin(KeyOf(t2))
	if n := s.AgeOut(5); n != 0 {
		t.Fatalf("premature age-out: %d", n)
	}
	if n := s.AgeOut(20); n != 1 {
		t.Fatalf("aged = %d, want 1 (pinned survives)", n)
	}
	if _, ok := s.GetOffline(KeyOf(t1)); ok {
		t.Error("t1 must be aged out")
	}
	if _, ok := s.GetOffline(KeyOf(t2)); !ok {
		t.Error("pinned t2 must survive")
	}
	if s.OfflineCount() != 1 {
		t.Errorf("offline count = %d", s.OfflineCount())
	}
}

func TestKeysSorted(t *testing.T) {
	s := NewStore("a")
	s.RecordBase(data.NewTuple("b", data.Int(1)), 0)
	s.RecordBase(data.NewTuple("a", data.Int(1)), 0)
	ks := s.Keys()
	if len(ks) != 2 || ks[0] > ks[1] {
		t.Errorf("keys = %v", ks)
	}
}

func TestOfflineSnapshotIsolation(t *testing.T) {
	// The offline copy must not alias online mutations after Forget.
	s := NewStore("a")
	s.EnableOffline(-1)
	head := data.NewTuple("p", data.Int(1))
	s.RecordDeriv(head, "r1", nil, 0)
	off, _ := s.GetOffline(KeyOf(head))
	nDerivs := len(off.Derivs)
	s.RecordDeriv(head, "r2", nil, 1) // mirrors again
	if got, _ := s.GetOffline(KeyOf(head)); len(got.Derivs) != nDerivs+1 {
		t.Fatalf("offline should track while online lives: %d", len(got.Derivs))
	}
	s.Forget(KeyOf(head))
	// Mutating a fresh online entry must not disturb the offline copy.
	s.RecordDeriv(head, "r3", nil, 2)
	if got, _ := s.GetOffline(KeyOf(head)); len(got.Derivs) != nDerivs+2 {
		t.Fatalf("offline entry re-mirrored after forget: %d derivs", len(got.Derivs))
	}
}

func TestMarkStaleAndClear(t *testing.T) {
	s := NewStore("a")
	s.EnableOffline(-1)
	tu := data.NewTuple("bestPath", data.Str("a"), data.Str("c"))
	key := KeyOf(tu)
	s.RecordBase(tu, 1)

	s.MarkStale(key, 7)
	for tier, get := range map[string]func(string) (Entry, bool){"online": s.Get, "offline": s.GetOffline} {
		if e, ok := get(key); !ok || !e.Stale || e.StaleAt != 7 {
			t.Fatalf("%s entry = %+v, want stale at 7", tier, e)
		}
	}
	// The history survives the withdrawal: stale is a flag, not a delete.
	if _, ok := s.Get(key); !ok {
		t.Fatal("stale entry must stay queryable")
	}

	s.ClearStale(key)
	if e, ok := s.Get(key); !ok || e.Stale {
		t.Fatalf("online entry after ClearStale = %+v, want fresh", e)
	}
	if e, ok := s.GetOffline(key); !ok || e.Stale {
		t.Fatalf("offline entry after ClearStale = %+v, want fresh", e)
	}

	// Marking a key the store never saw is a no-op, not a crash.
	s.MarkStale("missing", 9)
	s.ClearStale("missing")
}

func TestStaleSurvivesOfflineClone(t *testing.T) {
	s := NewStore("a")
	tu := data.NewTuple("link", data.Str("a"), data.Str("b"))
	key := KeyOf(tu)
	s.RecordBase(tu, 1)
	s.MarkStale(key, 3)
	// Enabling the offline tier after the fact clones the stale flag.
	s.EnableOffline(-1)
	s.RecordBase(tu, 4) // mirror triggers the offline clone
	if e, ok := s.GetOffline(key); !ok || !e.Stale {
		t.Fatalf("offline clone = %+v, want stale carried over", e)
	}
}

// FuzzStoreIndex checks the store's tuple index against plain KeyOf. A
// byte script of records, forgets and stale marks runs over a small
// tuple alphabet with every structural hash squeezed to 3 bits, so the
// index's chains collide, and after every step each live tuple's Key is
// its KeyOf, Get of that key holds an Equal tuple, and a forgotten
// tuple has no entry.
func FuzzStoreIndex(f *testing.F) {
	// The seeds replay the tests above: record and get, origins, forget
	// with and without the offline tier, stale marks.
	f.Add([]byte{0, 0, 1, 1, 1, 1, 0, 2})
	f.Add([]byte{2, 3, 2, 3})
	f.Add([]byte{0, 4, 3, 4, 0, 4})
	f.Add([]byte{0, 0, 4, 0, 1, 0, 3, 0, 4, 0})
	f.Add([]byte{0, 5, 0, 6, 3, 5, 1, 6, 3, 6, 2, 7})
	alphabet := []data.Tuple{
		data.NewTuple("link", data.Str("a"), data.Str("b")),
		data.NewTuple("reachable", data.Str("a"), data.Str("b")),
		data.NewTuple("link", data.Str("a"), data.Str("b")).Says("a"),
		data.NewTuple("reachable", data.Str("a"), data.Str("c")),
		data.NewTuple("event", data.Str("a"), data.Int(1)),
		data.NewTuple("p", data.Int(2)),
		data.NewTuple("p", data.Float(2)), // Equal to p(2): one entry
		data.NewTuple("p", data.Int(3)),
		data.NewTuple("q", data.Int(2)),
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		restore := data.LimitHashBitsForTesting(3)
		defer restore()
		s := NewStore("a")
		live := map[string]bool{}
		for i := 0; i+1 < len(script); i += 2 {
			tu := alphabet[int(script[i+1])%len(alphabet)]
			at := float64(i)
			switch script[i] % 5 {
			case 0:
				s.RecordBase(tu, at)
				live[KeyOf(tu)] = true
			case 1:
				s.RecordDeriv(tu, "r", []Ref{{Node: "a", Key: KeyOf(alphabet[0])}}, at)
				live[KeyOf(tu)] = true
			case 2:
				s.RecordOrigin(tu, Ref{Node: "b", Key: KeyOf(tu)}, at)
				live[KeyOf(tu)] = true
			case 3:
				s.Forget(s.Key(tu))
				delete(live, KeyOf(tu))
			case 4:
				s.MarkStale(s.Key(tu), at)
			}
			for _, u := range alphabet {
				key := KeyOf(u)
				if got := s.Key(u); got != key {
					t.Fatalf("step %d: Key(%s) = %s, KeyOf = %s", i/2, u, got, key)
				}
				e, ok := s.Get(key)
				switch {
				case live[key] && (!ok || !e.Tuple.Equal(u)):
					t.Fatalf("step %d: Get(Key(%s)) = %+v", i/2, u, e)
				case !live[key] && ok:
					t.Fatalf("step %d: forgotten %s still has entry %+v", i/2, u, e)
				}
			}
			if s.OnlineCount() != len(live) {
				t.Fatalf("step %d: %d online entries, want %d", i/2, s.OnlineCount(), len(live))
			}
		}
	})
}

// TestKeyOfIsTruncatedSHA256 pins the provenance pointer, which is wire
// format: the first 12 bytes of sha256 over the tuple's canonical key,
// hex-encoded, for every value kind. Computing it allocates only the
// returned string.
func TestKeyOfIsTruncatedSHA256(t *testing.T) {
	long := make([]data.Value, 40)
	for i := range long {
		long[i] = data.Str(strings.Repeat("x", i))
	}
	tuples := []data.Tuple{
		data.NewTuple("empty"),
		data.NewTuple("link", data.Str("a"), data.Str(""), data.Str("Has Space")),
		data.NewTuple("n", data.Int(-5), data.Int(1<<60+1), data.Float(2.5), data.Float(math.NaN()), data.Bool(true), data.Bool(false)),
		data.NewTuple("path", data.Str("a"), data.List(data.Strings("a", "b"), data.List(), data.List(data.Int(1), data.Float(1)))),
		data.NewTuple("reachable", data.Str("b"), data.Str("c")).Says("b"),
		data.NewTuple("long", long...),
	}
	for _, tu := range tuples {
		sum := sha256.Sum256([]byte(tu.Key()))
		if got, want := KeyOf(tu), hex.EncodeToString(sum[:])[:24]; got != want {
			t.Errorf("KeyOf(%v) = %s, want %s", tu, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { KeyOf(tuples[4]) }); n != 1 {
		t.Errorf("KeyOf: %v allocations, want 1", n)
	}
}
