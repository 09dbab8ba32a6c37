package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"provnet/internal/data"
)

// diagnosticsProgram is Example_diagnostics' route-flap monitor: a
// windowed count over soft change events and a soft alarm over it.
const diagnosticsProgram = `
materialize(change, 10, infinity, keys(1,2)).
materialize(changes, infinity, infinity, keys(1)).
materialize(alarm, 15, infinity, keys(1)).

c1 changes(@S,count<*>) :- change(@S,E).
c2 alarm(@S,N) :- changes(@S,N), N > 3.
`

// TestAdvanceRacesInject pins that logical time is a driver event: one
// goroutine injects change events into a started driver while another
// advances the clock and reads it, and the run is race-free. Before
// time was a driver event, the same script moved time through
// Network.Advance from the caller's goroutine, and -race reported 69
// data races in one run (3 in others; the count follows the
// interleaving), and 22 (7 to 35) with Network.InsertFact in place of
// the advance.
func TestAdvanceRacesInject(t *testing.T) {
	n, err := NewNetwork(Config{Source: diagnosticsProgram, ExtraNodes: []string{"router1"}, Store: NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const steps = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			if err := d.Inject("router1", data.NewTuple("change", data.Str("router1"), data.Int(int64(i)))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		last := 0.0
		for i := 0; i < steps; i++ {
			if err := d.Advance(1); err != nil {
				t.Error(err)
				return
			}
			now := n.Clock()
			if now < last {
				t.Errorf("clock went back from %v to %v", last, now)
				return
			}
			last = now
		}
	}()
	wg.Wait()
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	if got := n.Clock(); got != steps {
		t.Fatalf("clock = %v after %d advances of 1", got, steps)
	}
	// A view is republished when table content changes, so it carries
	// the clock of the last advance that changed something.
	if v := d.ReadView(); v.Clock > steps || v.Clock < 1 {
		t.Fatalf("the published view is at t=%v, the clock at %d", v.Clock, steps)
	}
	// Every event is at most 10 s old, so the window holds what the last
	// 10 s injected; the alarm and the count agree with it.
	live := len(n.Tuples("router1", "change"))
	if live > steps {
		t.Fatalf("%d live change events from %d injected", live, steps)
	}
	want := "-"
	if live > 0 {
		want = fmt.Sprint(live)
	}
	got := "-"
	for _, tu := range n.Tuples("router1", "changes") {
		got = tu.Args[1].String()
	}
	if got != want {
		t.Fatalf("window count = %s with %d live change events", got, live)
	}
}

// TestAdvanceRefusesBadStep pins Advance's input check: time moves
// forward by a finite step or not at all.
func TestAdvanceRefusesBadStep(t *testing.T) {
	n, err := NewNetwork(Config{Source: diagnosticsProgram, ExtraNodes: []string{"router1"}})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	for _, dt := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := d.Advance(dt); err == nil {
			t.Errorf("Advance(%v) accepted", dt)
		}
	}
	if err := d.Advance(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Advance(2.5); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	if n.Clock() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", n.Clock())
	}
}

// TestAdvanceSurvivesCancelledStep pins that cancellation loses no
// queued event: a step whose context is dead still applies the whole
// batch in order — the retraction's over-deletion, the Advance's expiry
// and the Inject — and stops before the drain, and the next step drains
// the wave and repairs. With nothing retracted nothing is in flight.
func TestAdvanceSurvivesCancelledStep(t *testing.T) {
	change := func(e int64) data.Tuple { return data.NewTuple("change", data.Str("router1"), data.Int(e)) }
	for _, retract := range []bool{true, false} {
		t.Run(fmt.Sprintf("retract=%v", retract), func(t *testing.T) {
			n, err := NewNetwork(Config{Source: diagnosticsProgram, ExtraNodes: []string{"router1"}})
			if err != nil {
				t.Fatal(err)
			}
			d := n.Driver()
			if err := d.Inject("router1", change(1), change(2)); err != nil {
				t.Fatal(err)
			}
			if _, err := d.AwaitQuiescence(context.Background()); err != nil {
				t.Fatal(err)
			}
			want := 3
			if retract {
				if err := d.Retract("router1", change(1)); err != nil {
					t.Fatal(err)
				}
				want = 2
			}
			if err := d.Advance(5); err != nil {
				t.Fatal(err)
			}
			if err := d.Inject("router1", change(3)); err != nil {
				t.Fatal(err)
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := d.Step(cancelled); err == nil {
				t.Fatal("Step with a cancelled context succeeded")
			}
			if got := n.retractionInFlight(); got != retract {
				t.Fatalf("retraction in flight after the cancelled step = %v, want %v", got, retract)
			}
			if n.Clock() != 5 || !n.Node("router1").Engine.Has(change(3)) {
				t.Fatalf("the cancelled step left the clock at %v and change(3) stored %v: the batch did not apply in full",
					n.Clock(), n.Node("router1").Engine.Has(change(3)))
			}
			if _, err := d.AwaitQuiescence(context.Background()); err != nil {
				t.Fatal(err)
			}
			if n.Clock() != 5 {
				t.Fatalf("clock = %v, want 5", n.Clock())
			}
			if got := len(n.Tuples("router1", "change")); got != want {
				t.Fatalf("%d change events live, want %d:\n%s", got, want, render(n, only("change")))
			}
			if got := render(n, only("changes")); got != fmt.Sprintf("router1: changes(router1, %d)\n", want) {
				t.Fatalf("window count %s, want %d", got, want)
			}
		})
	}
}

// TestAdvanceMatchesFresh drives expiry through a started driver
// against independent answers: seeded scripts mix Inject, Retract and
// Advance, and queue a retraction and an advance in one batch, which
// the driver applies in order and repairs at one drain. window checks
// a windowed count after every quiescence against a fresh network
// advanced to the clock with the unexpired events injected, as
// engine.TestExpireRecountMatchesFresh does one layer down. receiver
// ships soft rows to an aggregate on another node, under a hard-state
// rule that reads its head, and checks the head and the rule's rows
// against a recount of the receiver's live body rows: a head whose
// window empties takes the rule's row with it.
func TestAdvanceMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("window/seed=%d", seed), func(t *testing.T) { runWindowScript(t, seed) })
	}
	t.Run("receiver/scripted", func(t *testing.T) { runReceiverScript(t, nil) })
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		t.Run(fmt.Sprintf("receiver/seed=%d", seed), func(t *testing.T) { runReceiverScript(t, r) })
	}
}

const windowProgram = `
materialize(change, 10, infinity, keys(1,2)).
materialize(changes, infinity, infinity, keys(1)).
c1 changes(@S,count<*>) :- change(@S,E).
`

// runWindowScript plays a seeded script of injects, retractions and
// advances on windowProgram through a started driver, the first step
// empty.
func runWindowScript(t *testing.T, seed int64) {
	nodes := []string{"a", "b"}
	r := rand.New(rand.NewSource(seed))
	inject := func() event {
		node := nodes[r.Intn(len(nodes))]
		ev := event{op: "inject", node: node}
		for i, k := 0, 1+r.Intn(3); i < k; i++ {
			// A small event space: a repeat re-inserts an event, which
			// restarts its TTL.
			ev.tuples = append(ev.tuples, data.NewTuple("change", data.Str(node), data.Int(int64(r.Intn(12)))))
		}
		return ev
	}
	retract := func(in *inputs) []event {
		keys := slices.Sorted(maps.Keys(in.facts))
		if len(keys) == 0 {
			return nil
		}
		f := in.facts[keys[r.Intn(len(keys))]]
		return []event{{op: "retract", node: f.node, tuples: []data.Tuple{f.tuple}}}
	}
	advance := func() event { return event{op: "advance", dt: float64(1 + r.Intn(4))} }
	script{
		cfg:   Config{Source: windowProgram, ExtraNodes: nodes},
		shape: only("changes"),
		pump:  true,
		steps: 61,
		next: func(i int, in *inputs) []event {
			if i == 0 {
				return nil
			}
			switch r.Intn(5) {
			case 0, 1:
				return []event{inject()}
			case 2:
				return retract(in)
			case 3:
				return []event{advance()}
			default:
				return append(retract(in), advance())
			}
		},
		check: func(m moment) {
			if m.n.Clock() != m.in.clock {
				t.Fatalf("step %d %s: clock %v, want %v", m.step, m.what, m.n.Clock(), m.in.clock)
			}
			if got, want := strings.Join(m.live, ""), strings.Join(m.fresh, ""); got != want {
				t.Fatalf("step %d %s at t=%v: the window counts\n%sa fresh network on the unexpired events counts\n%s", m.step, m.what, m.in.clock, got, want)
			}
		},
	}.run(t)
}

// receiverProgram ships each sender's soft events to r, where tally
// counts, per sender, the events of senders r trusts, and alert, hard
// state keyed like tally, reads tally's head.
const receiverProgram = `
materialize(ev, 8, infinity, keys(1,2,3)).
materialize(seen, 8, infinity, keys(1,2,3)).
materialize(trust, infinity, infinity, keys(1,2)).
materialize(tally, infinity, infinity, keys(1,2)).
materialize(alert, infinity, infinity, keys(1,2)).
s1 seen(@R,S,E) :- ev(@S,R,E).
t1 tally(@R,S,count<*>) :- seen(@R,S,E), trust(@R,S).
a1 alert(@R,S,N) :- tally(@R,S,N).
`

// runReceiverScript drives receiverProgram: a seeded script when r is
// set, else the fixed script below, after two steps that trust both
// senders. The model is the script's inputs: the senders' live events
// and r's trust facts. After every quiescence r's tally must be the
// recount of its live body rows and alert must follow it: a group
// emptied by a retraction or by expiry loses its tally, and the repair
// cascades the vanished head to alert. Both also equal a fresh run's.
func runReceiverScript(t *testing.T, r *rand.Rand) {
	senders := []string{"s1", "s2"}
	evFact := func(s string, e int64) []data.Tuple {
		return []data.Tuple{data.NewTuple("ev", data.Str(s), data.Str("r"), data.Int(e))}
	}
	trustFact := func(s string) []data.Tuple { return []data.Tuple{data.NewTuple("trust", data.Str("r"), data.Str(s))} }
	trusted := func(in *inputs, s string) bool { return in.facts[trustFact(s)[0].Key()].node == "r" }
	inject := func(s string, e int64) event { return event{op: "inject", node: s, tuples: evFact(s, e)} }
	retractEv := func(s string, e int64) event { return event{op: "retract", node: s, tuples: evFact(s, e)} }
	setTrust := func(s string, on bool) event {
		if on {
			return event{op: "inject", node: "r", tuples: trustFact(s)}
		}
		return event{op: "retract", node: "r", tuples: trustFact(s)}
	}
	advance := func(dt float64) event { return event{op: "advance", dt: dt} }
	// live lists s's live events, in order.
	live := func(in *inputs, s string) []int64 {
		var out []int64
		for _, f := range in.live() {
			if f.node == s {
				out = append(out, f.tuple.Args[2].AsInt())
			}
		}
		slices.Sort(out)
		return out
	}

	// Two retractions, each queued in one batch with an advance that
	// expires the rows they empty a group of: a withdrawal r imports from
	// s1, and a trust fact retracted at r itself. The batch's
	// over-deletion and expiry share one repair, which must cascade the
	// vanished tally to alert; the last advance empties the groups by
	// expiry alone. Injected events are always new: a re-inserted live
	// event would restart its TTL at the sender only.
	steps := [][]event{
		{setTrust("s1", true)},
		{setTrust("s2", true)},
		{inject("s1", 1)}, // at t=0
		{inject("s2", 2)}, // at t=0
		{advance(4)},
		{inject("s2", 3)},                   // at t=4
		{retractEv("s1", 1), advance(5)},    // ev 1 withdrawn, then ev 1 and 2 expire
		{inject("s1", 4)},                   // at t=9
		{setTrust("s2", false), advance(4)}, // s2 distrusted, then ev 3 expires
		{setTrust("s2", true)},
		{inject("s2", 5)}, // at t=13
		{advance(20)},     // the rest lapses
	}
	if r != nil {
		steps = append(steps[:2], make([][]event, 60)...) // drawn as they come
	}
	nextEv := int64(0)
	script{
		cfg:   Config{Source: receiverProgram, ExtraNodes: append([]string{"r"}, senders...)},
		shape: only("tally", "alert"),
		pump:  true,
		steps: len(steps),
		next: func(i int, in *inputs) []event {
			if steps[i] != nil {
				return steps[i]
			}
			s := senders[r.Intn(len(senders))]
			evs := live(in, s)
			dt := float64(1 + r.Intn(4))
			switch op := r.Intn(8); {
			case op <= 2:
				nextEv++
				return []event{inject(s, nextEv)}
			case op == 3 && len(evs) > 0:
				return []event{retractEv(s, evs[r.Intn(len(evs))]), advance(dt)}
			case op == 4:
				return []event{setTrust(s, !trusted(in, s)), advance(dt)}
			case op == 5:
				return []event{setTrust(s, !trusted(in, s))}
			case op == 6 && len(evs) > 0:
				return []event{retractEv(s, evs[r.Intn(len(evs))])}
			default:
				return []event{advance(dt)}
			}
		},
		check: func(m moment) {
			for _, s := range senders {
				var tally, alert []string
				for _, tu := range m.n.Tuples("r", "tally") {
					if tu.Args[1].Str == s {
						tally = append(tally, tu.String())
					}
				}
				for _, tu := range m.n.Tuples("r", "alert") {
					if tu.Args[1].Str == s {
						alert = append(alert, tu.String())
					}
				}
				var want []string
				if c := len(live(m.in, s)); c > 0 && trusted(m.in, s) {
					want = []string{fmt.Sprintf("tally(r, %s, %d)", s, c)}
				}
				if fmt.Sprint(tally) != fmt.Sprint(want) {
					t.Fatalf("step %d %s at t=%v: tally for %s is %v, a recount of r's live rows gives %v", m.step, m.what, m.in.clock, s, tally, want)
				}
				for i := range want {
					want[i] = "alert" + strings.TrimPrefix(want[i], "tally")
				}
				if fmt.Sprint(alert) != fmt.Sprint(want) {
					t.Fatalf("step %d %s at t=%v: alert for %s is %v, want %v", m.step, m.what, m.in.clock, s, alert, want)
				}
			}
			if got, want := strings.Join(m.live, ""), strings.Join(m.fresh, ""); got != want {
				t.Fatalf("step %d %s at t=%v: r holds\n%sa fresh run on the live facts\n%s", m.step, m.what, m.in.clock, got, want)
			}
		},
	}.run(t)
}
