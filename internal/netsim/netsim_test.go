package netsim

import (
	"fmt"
	"sync"
	"testing"
)

func TestSendAndDrain(t *testing.T) {
	n := New()
	n.AddNode("a")
	n.AddNode("b")
	if err := n.Send("a", "b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("a", "b", []byte("world!")); err != nil {
		t.Fatal(err)
	}
	msgs := n.Drain("b")
	if len(msgs) != 2 || string(msgs[0].Payload) != "hello" || string(msgs[1].Payload) != "world!" {
		t.Fatalf("drain = %v", msgs)
	}
	if len(n.Drain("b")) != 0 {
		t.Error("drain must clear the queue")
	}
}

func TestByteAccounting(t *testing.T) {
	n := New()
	n.AddNode("a")
	n.AddNode("b")
	n.Send("a", "b", make([]byte, 100))
	n.Send("b", "a", make([]byte, 50))
	st := n.Stats()
	if st.Messages != 2 {
		t.Errorf("messages = %d", st.Messages)
	}
	want := int64(100 + 50 + 2*HeaderOverhead)
	if st.Bytes != want {
		t.Errorf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestSendUnknownNode(t *testing.T) {
	n := New()
	n.AddNode("a")
	if err := n.Send("a", "ghost", []byte("x")); err == nil {
		t.Fatal("send to unknown node must fail")
	}
	if n.Stats().DroppedMsg != 1 {
		t.Error("drop must be counted")
	}
}

func TestPendingCount(t *testing.T) {
	n := New()
	n.AddNode("a")
	n.AddNode("b")
	if n.PendingCount() != 0 {
		t.Error("fresh network has no pending messages")
	}
	n.Send("a", "b", []byte("x"))
	if n.PendingCount() != 1 {
		t.Error("pending = 1")
	}
	n.Drain("b")
	if n.PendingCount() != 0 {
		t.Error("drained")
	}
}

// TestConcurrentSendsDrainDeterministically hammers the fabric from many
// goroutines (run with -race) and checks that Drain returns exactly the
// order a sequential scheduler would have produced: sender registration
// order, then per-sender send order.
func TestConcurrentSendsDrainDeterministically(t *testing.T) {
	const senders, perSender = 8, 50
	n := New()
	n.AddNode("sink")
	names := make([]string, senders)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
		n.AddNode(names[i])
	}
	var wg sync.WaitGroup
	for i, from := range names {
		wg.Add(1)
		go func(i int, from string) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				payload := fmt.Sprintf("%s/%03d", from, k)
				if err := n.Send(from, "sink", []byte(payload)); err != nil {
					t.Error(err)
				}
			}
		}(i, from)
	}
	wg.Wait()
	msgs := n.Drain("sink")
	if len(msgs) != senders*perSender {
		t.Fatalf("drained %d messages, want %d", len(msgs), senders*perSender)
	}
	for i, m := range msgs {
		want := fmt.Sprintf("%s/%03d", names[i/perSender], i%perSender)
		if string(m.Payload) != want {
			t.Fatalf("msgs[%d] = %q, want %q", i, m.Payload, want)
		}
	}
	if got := n.Stats().Messages; got != senders*perSender {
		t.Errorf("messages = %d", got)
	}
}

// TestConcurrentStatsAccounting checks byte totals survive concurrent
// senders.
func TestConcurrentStatsAccounting(t *testing.T) {
	n := New()
	n.AddNode("a")
	n.AddNode("b")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				n.Send("a", "b", make([]byte, 10))
			}
		}()
	}
	wg.Wait()
	st := n.Stats()
	if st.Messages != 400 || st.Bytes != int64(400*(10+HeaderOverhead)) {
		t.Errorf("stats = %+v", st)
	}
}

// TestDrainRecyclesInbox pins Drain's ownership contract: its slice is
// valid until the node's next Drain, which takes the array back as the
// inbox. The recycled inbox must hold no reference to the payloads of
// the round drained before, and interleaved sends and drains must keep
// delivering each round in (sender registration, send) order, a round's
// sends never leaking into the round before or after.
func TestDrainRecyclesInbox(t *testing.T) {
	n := New()
	for _, name := range []string{"sink", "a", "b", "c"} {
		n.AddNode(name)
	}
	sink := n.nodes["sink"]
	var want []string
	send := func(from string, round, k int) {
		t.Helper()
		payload := fmt.Sprintf("%s/%d/%d", from, round, k)
		if err := n.Send(from, "sink", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 6; round++ {
		// Senders in reverse registration order, interleaved, and a
		// different number of sends each round.
		for k := 0; k <= round%3+1; k++ {
			for _, from := range []string{"c", "a", "b"} {
				send(from, round, k)
			}
		}
		want = want[:0]
		for _, from := range []string{"a", "b", "c"} {
			for k := 0; k <= round%3+1; k++ {
				want = append(want, fmt.Sprintf("%s/%d/%d", from, round, k))
			}
		}
		msgs := n.Drain("sink")
		if len(msgs) != len(want) {
			t.Fatalf("round %d: drained %d messages, want %d", round, len(msgs), len(want))
		}
		for i, m := range msgs {
			if string(m.Payload) != want[i] {
				t.Fatalf("round %d: msgs[%d] = %q, want %q", round, i, m.Payload, want[i])
			}
		}
		if round == 0 {
			continue
		}
		sink.mu.Lock()
		inbox := sink.queue[:cap(sink.queue)]
		sink.mu.Unlock()
		if cap(inbox) == 0 {
			t.Fatalf("round %d: the inbox was not recycled", round)
		}
		for i, m := range inbox {
			if m.Payload != nil || m.From != "" {
				t.Fatalf("round %d: recycled inbox slot %d still holds %s's %q", round, i, m.From, m.Payload)
			}
		}
	}
}
