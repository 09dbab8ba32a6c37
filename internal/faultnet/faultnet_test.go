package faultnet

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"provnet/internal/netsim"
)

// newNet builds a faultnet over a fresh in-memory fabric with nodes a,b,c.
func newNet(cfg Config) (*Net, *netsim.Network) {
	inner := netsim.New()
	for _, n := range []string{"a", "b", "c"} {
		inner.AddNode(n)
	}
	return New(inner, cfg), inner
}

// drainAll collects every payload currently deliverable at to.
func drainAll(n *Net, to string) []string {
	var out []string
	for _, m := range n.Drain(to) {
		out = append(out, string(m.Payload))
	}
	return out
}

func TestPassthroughWithoutFaults(t *testing.T) {
	n, _ := newNet(Config{Seed: 1})
	for i := 0; i < 10; i++ {
		if err := n.Send("a", "b", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.PendingCount(); got != 10 {
		t.Fatalf("PendingCount = %d, want 10", got)
	}
	msgs := drainAll(n, "b")
	if len(msgs) != 10 {
		t.Fatalf("delivered %d, want 10: %v", len(msgs), msgs)
	}
	if f := n.Faults(); f != (Faults{}) {
		t.Fatalf("faults injected with zero probabilities: %+v", f)
	}
}

func TestDropLosesFramesForever(t *testing.T) {
	n, _ := newNet(Config{Seed: 7, Drop: 1})
	for i := 0; i < 5; i++ {
		if err := n.Send("a", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainAll(n, "b"); len(got) != 0 {
		t.Fatalf("dropped frames delivered: %v", got)
	}
	if f := n.Faults(); f.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", f.Dropped)
	}
	if got := n.PendingCount(); got != 0 {
		t.Fatalf("dropped frames still pending: %d", got)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	n, _ := newNet(Config{Seed: 7, Dup: 1})
	if err := n.Send("a", "b", []byte("twin")); err != nil {
		t.Fatal(err)
	}
	got := drainAll(n, "b")
	if len(got) != 2 || got[0] != "twin" || got[1] != "twin" {
		t.Fatalf("duplicated frame delivered as %v, want [twin twin]", got)
	}
	if f := n.Faults(); f.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", f.Duplicated)
	}
}

// TestDelayedFrameStaysInFlight is the property the termination protocol
// depends on: a frame in limbo is in flight (the sender is unacked) but
// invisible to receiver-side gauges (PendingCount/Drain) —
// exactly the window where an idle heuristic falsely fires and the
// credit protocol must not.
func TestDelayedFrameStaysInFlight(t *testing.T) {
	n, _ := newNet(Config{Seed: 3, Delay: 1, DelayOps: 4})
	if err := n.Send("a", "b", []byte("late")); err != nil {
		t.Fatal(err)
	}
	if f := n.Faults(); f.Delayed != 1 || f.Limbo != 1 {
		t.Fatalf("faults = %+v, want one delayed frame in limbo", f)
	}
	if got := n.PendingCount(); got != 0 {
		t.Fatalf("PendingCount = %d, want 0 (limbo is on the wire, not in an inbox)", got)
	}
	if got := n.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1 (limbo counts on the sender side)", got)
	}
	// The hold is at most DelayOps+1 ops; tick past it.
	for i := 0; i < 6 && n.Faults().Limbo > 0; i++ {
		n.Tick()
	}
	got := drainAll(n, "b")
	if len(got) != 1 || got[0] != "late" {
		t.Fatalf("released frame delivered as %v, want [late]", got)
	}
	if n.PendingCount() != 0 || n.InFlight() != 0 {
		t.Fatalf("gauges nonzero after release: pending=%d inflight=%d", n.PendingCount(), n.InFlight())
	}
}

func TestReleaseAllFlushesLimbo(t *testing.T) {
	n, _ := newNet(Config{Seed: 3, Delay: 1, DelayOps: 1 << 20})
	for i := 0; i < 4; i++ {
		if err := n.Send("a", "b", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainAll(n, "b"); len(got) != 0 {
		t.Fatalf("limbo leaked before ReleaseAll: %v", got)
	}
	n.ReleaseAll()
	got := drainAll(n, "b")
	sort.Strings(got)
	if len(got) != 4 {
		t.Fatalf("ReleaseAll delivered %d frames, want 4: %v", len(got), got)
	}
	if f := n.Faults(); f.Limbo != 0 {
		t.Fatalf("limbo nonempty after ReleaseAll: %+v", f)
	}
}

// TestPartitionHoldsUntilHeal scripts an outage on the a->b link: frames
// sent during the window are held (still in flight), frames on other
// links pass, and healing releases the held frames.
func TestPartitionHoldsUntilHeal(t *testing.T) {
	n, _ := newNet(Config{
		Seed:       5,
		Partitions: []Partition{{Src: "a", Dst: "b", From: 0, To: 10}},
	})
	if err := n.Send("a", "b", []byte("held")); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("a", "c", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if got := drainAll(n, "c"); len(got) != 1 || got[0] != "fine" {
		t.Fatalf("unpartitioned link delivered %v, want [fine]", got)
	}
	if got := drainAll(n, "b"); len(got) != 0 {
		t.Fatalf("partitioned frame leaked: %v", got)
	}
	if got := n.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1 (partition holds count)", got)
	}
	// Advance the op clock past the heal point.
	for i := 0; i < 12; i++ {
		n.Tick()
	}
	if got := drainAll(n, "b"); len(got) != 1 || got[0] != "held" {
		t.Fatalf("healed partition delivered %v, want [held]", got)
	}
}

// TestSeedReplay pins determinism: equal seeds and equal operation
// sequences produce identical fault schedules; a different seed does not.
func TestSeedReplay(t *testing.T) {
	run := func(seed int64) (Faults, []string) {
		n, _ := newNet(Config{Seed: seed, Drop: 0.3, Dup: 0.2, Delay: 0.2, DelayOps: 3})
		for i := 0; i < 40; i++ {
			if err := n.Send("a", "b", []byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		n.ReleaseAll()
		f := n.Faults()
		return f, drainAll(n, "b")
	}
	f1, d1 := run(42)
	f2, d2 := run(42)
	if f1 != f2 {
		t.Fatalf("same seed, different fault counts: %+v vs %+v", f1, f2)
	}
	if fmt.Sprint(d1) != fmt.Sprint(d2) {
		t.Fatalf("same seed, different deliveries:\n%v\n%v", d1, d2)
	}
	if f1.Dropped == 0 || f1.Duplicated == 0 || f1.Delayed == 0 {
		t.Fatalf("schedule exercised no faults: %+v", f1)
	}
	f3, _ := run(43)
	if f1 == f3 {
		t.Fatalf("different seeds produced identical schedules: %+v", f1)
	}
}

// TestNotifyFiresOnRelease pins the scheduler wake-up: releasing limbo
// frames must fire the registered arrival callback.
func TestNotifyFiresOnRelease(t *testing.T) {
	n, _ := newNet(Config{Seed: 3, Delay: 1, DelayOps: 1 << 20})
	fired := 0
	n.Notify(func() { fired++ })
	if err := n.Send("a", "b", []byte("wake")); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("notify fired before release")
	}
	n.ReleaseAll()
	if fired == 0 {
		t.Fatal("notify did not fire on ReleaseAll")
	}
}

// TestAutoReleaseDrainsLimbo pins the live-run escape hatch: with
// AutoReleaseEvery set, limbo drains without any explicit Tick.
func TestAutoReleaseDrainsLimbo(t *testing.T) {
	inner := netsim.New()
	inner.AddNode("a")
	inner.AddNode("b")
	n := New(inner, Config{Seed: 3, Delay: 1, DelayOps: 2, AutoReleaseEvery: time.Millisecond})
	defer n.Close()
	if err := n.Send("a", "b", []byte("late")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for inner.PendingCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("limbo never auto-released: %+v", n.Faults())
		}
		time.Sleep(time.Millisecond)
	}
	if got := drainAll(n, "b"); len(got) != 1 || got[0] != "late" {
		t.Fatalf("auto-released delivery = %v, want [late]", got)
	}
}

// TestStatsPassthroughAndReset pins that Stats is the inner transport's
// counters and that they start from zero: there is no ResetStats, so a
// measurement that wants fresh counters builds a fresh transport.
func TestStatsPassthroughAndReset(t *testing.T) {
	n, inner := newNet(Config{Seed: 1})
	if s := n.Stats(); s != (netsim.Stats{}) {
		t.Fatalf("fresh transport has non-zero stats: %+v", s)
	}
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if s := n.Stats(); s != inner.Stats() || s.Messages != 1 {
		t.Fatalf("stats passthrough broken: %+v", s)
	}
}
