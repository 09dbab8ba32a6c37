package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"provnet/internal/auth"
	"provnet/internal/data"
	"provnet/internal/engine"
	"provnet/internal/netsim"
	"provnet/internal/obs"
	"provnet/internal/topo"
)

// roundTap is the in-memory fabric with two probes: it records the kind
// byte of every datagram shipped, per directed link in send order, and it
// can run a hook from inside an import phase (the first Drain after arm).
type roundTap struct {
	*netsim.Network
	mu      sync.Mutex
	kinds   map[[2]string][]byte
	onDrain func()
}

func newRoundTap() *roundTap {
	return &roundTap{Network: netsim.New(), kinds: map[[2]string][]byte{}}
}

func (rt *roundTap) Send(from, to string, payload []byte) error {
	rt.mu.Lock()
	rt.kinds[[2]string{from, to}] = append(rt.kinds[[2]string{from, to}], payload[0])
	rt.mu.Unlock()
	return rt.Network.Send(from, to, payload)
}

func (rt *roundTap) Drain(to string) []netsim.Message {
	rt.mu.Lock()
	hook := rt.onDrain
	rt.onDrain = nil
	rt.mu.Unlock()
	if hook != nil {
		hook()
	}
	return rt.Network.Drain(to)
}

// arm runs hook once, inside the next import phase.
func (rt *roundTap) arm(hook func()) {
	rt.mu.Lock()
	rt.onDrain = hook
	rt.mu.Unlock()
}

// shipped returns the frame kinds sent so far and forgets them.
func (rt *roundTap) shipped() map[[2]string][]byte {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := rt.kinds
	rt.kinds = map[[2]string][]byte{}
	return out
}

func derivations(n *Network) int64 {
	var sum int64
	for _, name := range n.Nodes() {
		sum += n.Node(name).Engine.Stats.Derivations
	}
	return sum
}

func hasTuple(n *Network, node string, want data.Tuple) bool {
	for _, tu := range n.Tuples(node, want.Pred) {
		if tu.WithoutAsserter().Equal(want) {
			return true
		}
	}
	return false
}

// TestRetractRoundShipsWithoutEvaluating pins runRound(ctx, false), the
// withdrawal-only round of a retraction drain: queued withdrawals ship,
// data already in flight still lands, no node evaluates, and the round is
// recorded as a retract round.
func TestRetractRoundShipsWithoutEvaluating(t *testing.T) {
	m, tap := obs.New(), newRoundTap()
	n, err := NewNetwork(Config{Source: BestPath, Graph: topo.Line(4), Transport: tap, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	tap.shipped()

	// Over-delete n1's link to n2, as applyLink does for a CutLink, and
	// put one data frame in flight from n2 to n3.
	n1 := n.Node("n1")
	n1.pendingRetract = append(n1.pendingRetract, n1.Engine.BeginRetractFacts(data.NewTuple("link", data.Str("n1"), data.Str("n2"), data.Int(1)))...)
	if len(n1.pendingRetract) == 0 {
		t.Fatal("cutting n1→n2 queued no withdrawal")
	}
	inFlight := data.NewTuple("link", data.Str("n3"), data.Str("n9"), data.Int(7))
	f := &frame{kind: kindData, from: "n2", mode: n.cfg.Prov, items: []item{{tuple: inFlight}}}
	datagram, err := f.seal(new(roundScratch), n.sealer, "n3")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.net.Send("n2", "n3", datagram); err != nil {
		t.Fatal(err)
	}
	tap.shipped()

	before := derivations(n)
	rounds := m.Counter("provnet_scheduler_rounds_total", "").Value()
	retractRounds := m.Counter("provnet_scheduler_retract_rounds_total", "").Value()
	progress, err := n.runRound(t.Context(), false)
	if err != nil || !progress {
		t.Fatalf("runRound(false) = %v, %v; want progress", progress, err)
	}

	if len(n1.pendingRetract) != 0 {
		t.Errorf("%d withdrawals still queued at n1", len(n1.pendingRetract))
	}
	sent := tap.shipped()
	if len(sent[[2]string{"n1", "n2"}]) == 0 {
		t.Error("no frame shipped n1→n2")
	}
	for link, kinds := range sent {
		for _, k := range kinds {
			if k != kindRetract {
				t.Errorf("%v shipped a frame of kind %d in a withdrawal-only round", link, k)
			}
		}
	}
	if !hasTuple(n, "n3", inFlight) {
		t.Error("the data frame in flight to n3 did not land")
	}
	if after := derivations(n); after != before {
		t.Errorf("derivations moved %d → %d: a withdrawal-only round evaluated", before, after)
	}
	if got := m.Counter("provnet_scheduler_retract_rounds_total", "").Value(); got != retractRounds+1 {
		t.Errorf("retract rounds %d → %d, want one more", retractRounds, got)
	}
	if got := m.Counter("provnet_scheduler_rounds_total", "").Value(); got != rounds {
		t.Errorf("forward rounds %d → %d, want unchanged", rounds, got)
	}
	recs := m.Flight.Snapshot()
	if last := recs[len(recs)-1]; last.Kind != "retract" || last.DeltasOut == 0 || last.DeltasIn == 0 {
		t.Errorf("last flight record = %+v, want a retract round with frames out and in", last)
	}
}

// TestRoundShipsRetractsBeforeData pins the frame order of an evaluating
// round whose sender also owes withdrawals: on every link the handshake a
// new session needs comes first and once, then the retract frame, then
// the round's data frame — receivers withdraw before they integrate.
// A withdrawal that lands in an evaluating round over-deletes at once,
// and its repair waits for the next step's drain.
func TestRoundShipsRetractsBeforeData(t *testing.T) {
	tap := newRoundTap()
	n, err := NewNetwork(Config{Source: BestPath, Graph: topo.Line(3), Transport: tap,
		Auth: auth.SchemeSession, KeyBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	// n1 has not evaluated yet, so its first round exports to both
	// neighbours; queue a withdrawal of a row to each, last neighbour
	// first. n0 holds the row with n1's support; n2 never got it and
	// ignores the withdrawal.
	gone := data.NewTuple("link", data.Str("n1"), data.Str("zz"), data.Int(1))
	n0 := n.Node("n0").Engine
	if err := n0.InsertImportedFrom("n1", gone, nil); err != nil {
		t.Fatal(err)
	}
	n.Node("n1").pendingRetract = []engine.Withdrawal{{Dest: "n2", Tuple: gone}, {Dest: "n0", Tuple: gone}}
	if _, err := n.runRound(t.Context(), true); err != nil {
		t.Fatal(err)
	}
	sent := tap.shipped()
	want := string([]byte{kindHandshake, kindRetract, kindData})
	for _, dest := range []string{"n0", "n2"} {
		if got := string(sent[[2]string{"n1", dest}]); got != want {
			t.Errorf("n1→%s shipped kinds %v, want handshake, retract, data %v", dest, []byte(got), []byte(want))
		}
	}
	if n0.Has(gone) || !n0.HasPendingRetract() {
		t.Fatalf("after the round n0 stores %s: %v, awaits a repair: %v; want over-deleted, repair pending",
			gone, n0.Has(gone), n0.HasPendingRetract())
	}
	if n.Node("n2").Engine.HasPendingRetract() {
		t.Error("n2 awaits a repair for a withdrawal that found nothing")
	}
	if _, err := n.Driver().Step(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n0.HasPendingRetract() {
		t.Error("the next step's drain did not repair n0")
	}
}

// TestWithdrawalsOutliveNextRetraction pins how long a node's
// withdrawals must live: their heads come from its engine's retraction
// value slab, which the engine hands out again when the node starts its
// next retraction, and the scheduler ships them first. A withdrawal n0
// owes lands at n1 in an evaluating round and over-deletes there,
// queueing n1's own withdrawals; then a cut at n1 starts n1's next
// retraction before those have shipped. The tables must equal a fresh
// run's without the two links, also with the slab poisoned when it is
// handed out again. Repairing the landed withdrawal at once, which ends
// n1's retraction before the cut starts the next, lets the cut's heads
// overwrite n1's queued withdrawals and fails this.
func TestWithdrawalsOutliveNextRetraction(t *testing.T) {
	g := topo.Line(4)
	run := func() string {
		n, err := NewNetwork(Config{Source: BestPath, Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(0); err != nil {
			t.Fatal(err)
		}
		n0 := n.Node("n0")
		var cut []data.Tuple
		for _, l := range n0.Engine.Tuples("link") {
			if l.Args[1].Str == "n1" {
				cut = append(cut, l)
			}
		}
		n0.pendingRetract = append(n0.pendingRetract, n0.Engine.BeginRetractFacts(cut...)...)
		if _, err := n.runRound(t.Context(), true); err != nil {
			t.Fatal(err)
		}
		if len(n.Node("n1").pendingRetract) == 0 {
			t.Fatal("n0's withdrawal left n1 nothing to ship")
		}
		d := n.Driver()
		if err := d.CutLink("n1", "n2"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AwaitQuiescence(t.Context()); err != nil {
			t.Fatal(err)
		}
		return render(n, shape{})
	}
	fresh, _ := mustRun(t, Config{Source: BestPath, Graph: without(g, topo.Link{From: "n0", To: "n1"}, topo.Link{From: "n1", To: "n2"})})
	want := render(fresh, shape{})
	if got := run(); got != want {
		t.Fatalf("tables after the cuts:\n%s\na fresh run without the two links:\n%s", got, want)
	}
	restore := engine.PoisonScratchForTesting()
	poisoned := run()
	restore()
	if poisoned != want {
		t.Fatalf("poisoned retraction slab: tables after the cuts:\n%s\na fresh run without the two links:\n%s", poisoned, want)
	}
	if !strings.Contains(want, "bestPath(n2, n3") {
		t.Fatal("the fresh run derived no bestPath(n2, n3, …)")
	}
}

// repairedCtx reports cancellation while node has run its repair and its
// withdrawals are still queued: a context cancelled between a drain's
// repair phase and the round that ships the repair's withdrawals.
type repairedCtx struct {
	context.Context
	node *Node
}

func (c repairedCtx) Err() error {
	if len(c.node.pendingRetract) > 0 && !c.node.Engine.HasPendingRetract() {
		return context.Canceled
	}
	return nil
}

// TestCancelledDrainShipsRepairWithdrawals pins that a drain which has
// begun repairing runs to its end: an expiry empties a's window, a's
// repair withdraws the alert its tally fed from b, and a step whose
// context is cancelled right after that repair must still ship the
// withdrawal. Left queued, it would meet the next step's retraction at
// a, which hands the repair's head slab (poisoned here) out again, and b
// would keep alert.
func TestCancelledDrainShipsRepairWithdrawals(t *testing.T) {
	defer engine.PoisonScratchForTesting()()
	const prog = `
materialize(ev, 10, infinity, keys(1,2)).
materialize(peer, infinity, infinity, keys(1,2)).
materialize(ping, infinity, infinity, keys(1,2)).
materialize(tally, infinity, infinity, keys(1)).
t1 tally(@N,count<*>) :- ev(@N,E).
a1 alert(@M,N,C) :- tally(@N,C), peer(@N,M).
e1 echo(@M,N,P) :- ping(@N,P), peer(@N,M).
`
	n, err := NewNetwork(Config{Source: prog, ExtraNodes: []string{"a", "b"}, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	d, ctx := n.Driver(), t.Context()
	ping := data.NewTuple("ping", data.Str("a"), data.Int(7))
	if err := d.Inject("a", data.NewTuple("peer", data.Str("a"), data.Str("b")),
		data.NewTuple("ev", data.Str("a"), data.Int(1)), ping); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	if got := render(n, only("alert", "echo")); !strings.Contains(got, "alert(b, a, 1)") || !strings.Contains(got, "echo(b, a, 7)") {
		t.Fatalf("b holds %s, want alert(b, a, 1) and echo(b, a, 7)", got)
	}
	if err := d.Advance(10); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Step(repairedCtx{ctx, n.Node("a")}); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if err := d.Retract("a", ping); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	if got := render(n, only("alert", "echo")); got != "" {
		t.Fatalf("after the expiry and the retraction the network holds\n%s", got)
	}
}

// TestConvergeEntries drives the one converge loop through its three
// entries — Run with a step cap, the unstarted AwaitQuiescence, and the
// live pump.
func TestConvergeEntries(t *testing.T) {
	t.Run("run-capped", func(t *testing.T) {
		n, err := NewNetwork(Config{Source: BestPath, Graph: topo.Line(6)})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := n.Run(3)
		if !errors.Is(err, ErrNoFixpoint) || rep == nil || rep.Rounds != 3 {
			t.Fatalf("Run(3) = %+v, %v; want 3 rounds and ErrNoFixpoint", rep, err)
		}
		if v := n.Driver().ReadView(); v.Seq != 1 || !strings.Contains(v.Dump(), "link(") {
			t.Errorf("capped run published Seq %d:\n%s\nwant the state as it stands at Seq 1", v.Seq, v.Dump())
		}
	})

	// An Inject that lands from a scheduler worker in the middle of what
	// would be the last round — after the step took its events, while the
	// round makes no progress — must be converged too: no entry returns
	// with a non-empty inbox.
	late := data.NewTuple("link", data.Str("n0"), data.Str("n3"), data.Int(1))
	for _, entry := range []string{"run", "await", "pump"} {
		t.Run(entry+"-inject-mid-round", func(t *testing.T) {
			tap := newRoundTap()
			n, err := NewNetwork(Config{Source: BestPath, Graph: topo.Line(4), Transport: tap})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			d, ctx := n.Driver(), t.Context()
			if entry == "pump" {
				if err := d.Start(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := d.AwaitQuiescence(ctx); err != nil {
				t.Fatal(err)
			}
			tap.arm(func() {
				if err := d.Inject("n0", late); err != nil {
					t.Error(err)
				}
			})
			switch entry {
			case "run":
				_, err = n.Run(0)
			case "await":
				_, err = d.AwaitQuiescence(ctx)
			case "pump":
				// Nudge marks the pump dirty before it returns, so the wait
				// below covers the burst whose first Drain runs the hook.
				d.Nudge()
				_, err = d.AwaitQuiescence(ctx)
			}
			if err != nil {
				t.Fatal(err)
			}
			d.mu.Lock()
			queued := len(d.inbox)
			d.mu.Unlock()
			if queued != 0 {
				t.Errorf("%s returned with %d events still queued", entry, queued)
			}
			// The shortcut n0→n3 is installed and propagated: n3's old
			// three-hop route from n0 is now one hop.
			if !hasTuple(n, "n0", late) {
				t.Fatalf("%s returned before the injected link was applied", entry)
			}
			found := false
			for _, tu := range n.Tuples("n0", "spCost") {
				if tu.Args[1].Str == "n3" && tu.Args[2].Int == 1 {
					found = true
				}
			}
			if !found {
				t.Errorf("spCost(n0,n3) not re-converged to 1: %v", n.Tuples("n0", "spCost"))
			}
		})
	}
}
