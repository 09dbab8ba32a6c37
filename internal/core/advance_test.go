package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"provnet/internal/data"
	"provnet/internal/datalog"
	"provnet/internal/engine"
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
				t.Fatalf("%d change events live, want %d: %s", got, want, renderTuples(n.Tuples("router1", "change")))
			}
			if got := renderTuples(n.Tuples("router1", "changes")); got != fmt.Sprintf("changes(router1, %d)", want) {
				t.Fatalf("window count %s, want %d", got, want)
			}
		})
	}
}

// inOneBatch queues events while holding the run lock, so the live
// pump takes them all in one step: each step locks runMu before it
// drains the inbox.
func inOneBatch(d *Driver, queue func() error) error {
	d.runMu.Lock()
	defer d.runMu.Unlock()
	return queue()
}

// freshEngine loads src, localized, into an engine that has never run.
func freshEngine(t *testing.T, self, src string) *engine.Engine {
	t.Helper()
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog, err = datalog.Localize(prog); err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Self: self})
	if err := e.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	return e
}

func renderTuples(ts []data.Tuple) string {
	out := make([]string, len(ts))
	for i, tu := range ts {
		out[i] = tu.String()
	}
	return strings.Join(out, " ")
}

// TestAdvanceMatchesFresh drives expiry through a started driver
// against independent answers: seeded scripts mix Inject, Retract and
// Advance, and queue a retraction and an advance in one batch, which
// the driver applies in order and repairs at one drain. window checks
// a windowed count against a fresh engine loaded with the unexpired
// events after every quiescence, as engine.TestExpireRecountMatchesFresh
// does one layer down. receiver
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

func runWindowScript(t *testing.T, seed int64) {
	nodes := []string{"a", "b"}
	n, err := NewNetwork(Config{Source: windowProgram, ExtraNodes: nodes})
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

	type fact struct {
		node    string
		tuple   data.Tuple
		created float64
	}
	facts := map[string]fact{} // injected and not retracted, by key
	clock := 0.0
	check := func(step string) {
		t.Helper()
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if n.Clock() != clock {
			t.Fatalf("%s: clock %v, want %v", step, n.Clock(), clock)
		}
		keys := make([]string, 0, len(facts))
		for k := range facts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, node := range nodes {
			fresh := freshEngine(t, node, windowProgram)
			fresh.Expire(clock)
			for _, k := range keys {
				if f := facts[k]; f.node == node && clock < f.created+10 {
					fresh.InsertFact(f.tuple)
				}
			}
			fresh.RunToFixpoint()
			if got, want := renderTuples(n.Tuples(node, "changes")), renderTuples(fresh.Tuples("changes")); got != want {
				t.Fatalf("%s at t=%v: %s has changes [%s], a fresh engine on the unexpired events [%s]", step, clock, node, got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(seed))
	inject := func() (string, error) {
		node := nodes[r.Intn(len(nodes))]
		var ts []data.Tuple
		for i, k := 0, 1+r.Intn(3); i < k; i++ {
			// A small event space: a repeat re-inserts an event, which
			// restarts its TTL.
			tu := data.NewTuple("change", data.Str(node), data.Int(int64(r.Intn(12))))
			ts = append(ts, tu)
			facts[tu.Key()] = fact{node, tu, clock}
		}
		return fmt.Sprintf("inject %d at %s", len(ts), node), d.Inject(node, ts...)
	}
	retract := func() (string, error) {
		keys := make([]string, 0, len(facts))
		for k := range facts {
			keys = append(keys, k)
		}
		if len(keys) == 0 {
			return "retract nothing", nil
		}
		sort.Strings(keys)
		f := facts[keys[r.Intn(len(keys))]]
		delete(facts, f.tuple.Key())
		return fmt.Sprintf("retract %s", f.tuple), d.Retract(f.node, f.tuple)
	}
	advance := func() (string, error) {
		dt := float64(1 + r.Intn(4))
		clock += dt
		return fmt.Sprintf("advance %v", dt), d.Advance(dt)
	}
	check("start")
	for step := 0; step < 60; step++ {
		var what string
		var err error
		switch r.Intn(5) {
		case 0, 1:
			what, err = inject()
		case 2:
			what, err = retract()
		case 3:
			what, err = advance()
		default:
			err = inOneBatch(d, func() error {
				w1, err := retract()
				if err != nil {
					return err
				}
				w2, err := advance()
				what = w1 + ", " + w2 + " in one batch"
				return err
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("step %d (%s)", step, what))
	}
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
// set, else the fixed script below. The model is the senders' live
// events and r's trust facts. After every quiescence r's tally must be
// the recount of its live body rows and alert must follow it: a group
// emptied by a retraction or by expiry loses its tally, and the repair
// cascades the vanished head to alert.
func runReceiverScript(t *testing.T, r *rand.Rand) {
	senders := []string{"s1", "s2"}
	n, err := NewNetwork(Config{Source: receiverProgram, ExtraNodes: append([]string{"r"}, senders...)})
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

	clock := 0.0
	events := map[string]map[int64]float64{} // sender → live event → created
	trusted := map[string]bool{}
	for _, s := range senders {
		events[s] = map[int64]float64{}
	}
	count := func(s string) int {
		if !trusted[s] {
			return 0
		}
		c := 0
		for _, created := range events[s] {
			if clock < created+8 {
				c++
			}
		}
		return c
	}
	nextEv := int64(0)
	evFact := func(s string, e int64) data.Tuple {
		return data.NewTuple("ev", data.Str(s), data.Str("r"), data.Int(e))
	}
	trustFact := func(s string) data.Tuple { return data.NewTuple("trust", data.Str("r"), data.Str(s)) }

	// Each op updates the model as the driver will apply it, and queues
	// the event. Injected events are always new: a re-inserted live event
	// would restart its TTL at the sender only.
	inject := func(s string) (string, error) {
		nextEv++
		events[s][nextEv] = clock
		return fmt.Sprintf("inject ev %d at %s", nextEv, s), d.Inject(s, evFact(s, nextEv))
	}
	retractEv := func(s string, e int64) (string, error) {
		delete(events[s], e)
		return fmt.Sprintf("retract ev %d at %s", e, s), d.Retract(s, evFact(s, e))
	}
	setTrust := func(s string, on bool) (string, error) {
		trusted[s] = on
		if on {
			return "trust " + s, d.Inject("r", trustFact(s))
		}
		return "distrust " + s, d.Retract("r", trustFact(s))
	}
	advance := func(dt float64) (string, error) {
		clock += dt
		return fmt.Sprintf("advance %v", dt), d.Advance(dt)
	}
	batch := func(ops ...func() (string, error)) (string, error) {
		var what []string
		err := inOneBatch(d, func() error {
			for _, op := range ops {
				w, err := op()
				what = append(what, w)
				if err != nil {
					return err
				}
			}
			return nil
		})
		return strings.Join(what, ", ") + " in one batch", err
	}

	check := func(step string) {
		t.Helper()
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for _, s := range senders {
			var tally, alert []string
			for _, tu := range n.Tuples("r", "tally") {
				if tu.Args[1].Str == s {
					tally = append(tally, tu.String())
				}
			}
			for _, tu := range n.Tuples("r", "alert") {
				if tu.Args[1].Str == s {
					alert = append(alert, tu.String())
				}
			}
			var want []string
			if c := count(s); c > 0 {
				want = []string{fmt.Sprintf("tally(r, %s, %d)", s, c)}
			}
			if fmt.Sprint(tally) != fmt.Sprint(want) {
				t.Fatalf("%s at t=%v: tally for %s is %v, a recount of r's live rows gives %v", step, clock, s, tally, want)
			}
			for i := range want {
				want[i] = "alert" + strings.TrimPrefix(want[i], "tally")
			}
			if fmt.Sprint(alert) != fmt.Sprint(want) {
				t.Fatalf("%s at t=%v: alert for %s is %v, want %v", step, clock, s, alert, want)
			}
		}
	}

	run := func(step string, what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		check(step + " (" + what + ")")
	}
	for _, s := range senders {
		what, err := setTrust(s, true)
		run("setup", what, err)
	}
	if r == nil {
		// Two retractions, each queued in one batch with an advance that
		// expires the rows they empty a group of: a withdrawal r imports
		// from s1, and a trust fact retracted at r itself. The batch's
		// over-deletion and expiry share one repair, which must cascade
		// the vanished tally to alert; the last advance empties the
		// groups by expiry alone.
		steps := []func() (string, error){
			func() (string, error) { return inject("s1") }, // ev 1 at t=0
			func() (string, error) { return inject("s2") }, // ev 2 at t=0
			func() (string, error) { return advance(4) },   // t=4
			func() (string, error) { return inject("s2") }, // ev 3 at t=4
			func() (string, error) { // ev 1 withdrawn, then ev 1 and 2 expire
				return batch(func() (string, error) { return retractEv("s1", 1) }, func() (string, error) { return advance(5) })
			},
			func() (string, error) { return inject("s1") }, // ev 4 at t=9
			func() (string, error) { // s2 distrusted, then ev 3 expires
				return batch(func() (string, error) { return setTrust("s2", false) }, func() (string, error) { return advance(4) })
			},
			func() (string, error) { return setTrust("s2", true) },
			func() (string, error) { return inject("s2") }, // ev 5 at t=13
			func() (string, error) { return advance(20) },  // the rest lapses
		}
		for i, op := range steps {
			what, err := op()
			run(fmt.Sprintf("step %d", i), what, err)
		}
		return
	}
	for step := 0; step < 60; step++ {
		s := senders[r.Intn(len(senders))]
		var live []int64
		for e, created := range events[s] {
			if clock < created+8 {
				live = append(live, e)
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
		dt := float64(1 + r.Intn(4))
		var what string
		var err error
		switch op := r.Intn(8); {
		case op <= 2:
			what, err = inject(s)
		case op == 3 && len(live) > 0:
			e := live[r.Intn(len(live))]
			what, err = batch(func() (string, error) { return retractEv(s, e) }, func() (string, error) { return advance(dt) })
		case op == 4:
			what, err = batch(func() (string, error) { return setTrust(s, !trusted[s]) }, func() (string, error) { return advance(dt) })
		case op == 5:
			what, err = setTrust(s, !trusted[s])
		case op == 6 && len(live) > 0:
			what, err = retractEv(s, live[r.Intn(len(live))])
		default:
			what, err = advance(dt)
		}
		run(fmt.Sprintf("step %d", step), what, err)
	}
}
