package nettcp

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tCtx returns a context that expires after d or when the test ends.
func tCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// newReliable builds a reliable transport with a short retransmit
// timeout, applying mut to the config before New.
func newReliable(t *testing.T, peers map[string]string, mut func(*Config)) *Transport {
	t.Helper()
	cfg := Config{
		Listen:            "127.0.0.1:0",
		Peers:             peers,
		Logf:              t.Logf,
		Reliable:          true,
		RetransmitTimeout: 30 * time.Millisecond,
		RetryMin:          10 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// sendSeq ships n numbered payloads a->b and returns the payloads sent.
func sendSeq(t *testing.T, tr *Transport, n int) []string {
	t.Helper()
	var sent []string
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("m-%03d", i)
		if err := tr.Send("a", "b", []byte(p)); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, p)
	}
	return sent
}

// assertDelivered drains b until want payloads arrive and asserts exact
// in-order, duplicate-free delivery; any extra arrival afterwards fails.
func assertDelivered(t *testing.T, tr *Transport, want []string) {
	t.Helper()
	msgs := waitDrain(t, tr, "b", len(want))
	if len(msgs) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(msgs), len(want))
	}
	for i, m := range msgs {
		if string(m.Payload) != want[i] {
			t.Fatalf("message %d = %q, want %q (order or dedup broken)", i, m.Payload, want[i])
		}
	}
	// The window must settle without re-delivering anything.
	time.Sleep(100 * time.Millisecond)
	if extra := tr.Drain("b"); len(extra) != 0 {
		t.Fatalf("duplicate deliveries after settle: %v", extra)
	}
}

// TestReliableDeliveryUnderLoss drops the first write of every data
// frame: each must come back via the retransmit window, in order,
// without duplicates reaching the inbox.
func TestReliableDeliveryUnderLoss(t *testing.T) {
	trB := newReliable(t, nil, nil)
	trB.AddNode("b")
	trA := newReliable(t, map[string]string{"b": trB.Addr()}, func(c *Config) {
		var mu sync.Mutex
		seen := make(map[uint64]bool)
		c.DropWrite = func(peer string, seq uint64, ack bool) bool {
			if ack || seq == 0 {
				return false
			}
			mu.Lock()
			defer mu.Unlock()
			first := !seen[seq]
			seen[seq] = true
			return first // lose every frame's first transmission
		}
	})
	trA.AddNode("a")
	trB.AddPeer("a", trA.Addr()) // return path for acks
	sent := sendSeq(t, trA, 20)
	assertDelivered(t, trB, sent)
	if s := trA.Stats(); s.Retransmits == 0 {
		t.Fatalf("expected retransmits after scripted loss, stats = %+v", s)
	}
	if err := trA.Flush(tCtx(t, 5*time.Second)); err != nil {
		t.Fatalf("window never cleared: %v", err)
	}
	if n := trA.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after Flush", n)
	}
}

// TestLostAcksForceDupSuppression drops every ack once: the sender
// retransmits already-delivered frames, and the receive window must
// swallow them (DupDropped counts, the inbox sees each payload once).
func TestLostAcksForceDupSuppression(t *testing.T) {
	var dropped atomic.Int64
	trB := newReliable(t, nil, func(c *Config) {
		// The receiver loses its first few outbound acks.
		c.DropWrite = func(peer string, seq uint64, ack bool) bool {
			return ack && dropped.Add(1) <= 5
		}
	})
	trB.AddNode("b")
	trA := newReliable(t, map[string]string{"b": trB.Addr()}, nil)
	trA.AddNode("a")
	trB.AddPeer("a", trA.Addr()) // return path for acks
	sent := sendSeq(t, trA, 10)
	assertDelivered(t, trB, sent)
	if err := trA.Flush(tCtx(t, 5*time.Second)); err != nil {
		t.Fatalf("window never cleared (acks lost for good): %v", err)
	}
	if s := trB.Stats(); s.DupDropped == 0 {
		t.Fatalf("expected duplicate suppression after lost acks, receiver stats = %+v", s)
	}
}

// TestCrashedReceiverFramesRetransmitted is the headline reliability
// property: frames the peer's kernel accepted but its process never
// read are NOT lost. A raw listener swallows the first connection
// without reading past the kernel buffer, then dies; a real transport
// takes over the same address and must receive every frame via the
// replayed window.
func TestCrashedReceiverFramesRetransmitted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	trA := newReliable(t, map[string]string{"b": addr}, nil)
	trA.AddNode("a")
	sent := sendSeq(t, trA, 5)

	// The "crashed" peer: kernel took the bytes, the process never did.
	select {
	case c := <-accepted:
		time.Sleep(50 * time.Millisecond) // let the writes land in the kernel
		c.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("sender never dialed")
	}
	ln.Close()

	// Restart: a real transport on the same address.
	var trB *Transport
	deadline := time.Now().Add(10 * time.Second)
	for {
		trB, err = New(Config{Listen: addr, Logf: t.Logf, Reliable: true})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() { trB.Close() })
	trB.AddNode("b")
	trB.AddPeer("a", trA.Addr())
	assertDelivered(t, trB, sent)
	if s := trA.Stats(); s.Retransmits == 0 {
		t.Fatalf("recovery without retransmits? stats = %+v", s)
	}
}

// TestBackpressureBoundsQueue pins the bounded-window contract: with the
// peer unreachable, at most Window frames are accepted and the next send
// blocks (observable via the Backpressured counter) until Close fails it.
func TestBackpressureBoundsQueue(t *testing.T) {
	// A dead address: reserve a port and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	const window = 4
	trA := newReliable(t, map[string]string{"b": dead}, func(c *Config) { c.Window = window })
	trA.AddNode("a")

	var accepted atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < window+3; i++ {
			if err := trA.Send("a", "b", []byte{byte(i)}); err != nil {
				done <- err
				return
			}
			accepted.Add(1)
		}
		done <- nil
	}()

	deadline := time.Now().Add(10 * time.Second)
	for accepted.Load() < window {
		if time.Now().After(deadline) {
			t.Fatalf("only %d sends accepted", accepted.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // would-be window+1'th send must stay blocked
	if n := accepted.Load(); n != window {
		t.Fatalf("%d sends accepted, want exactly %d (window)", n, window)
	}
	if n := trA.InFlight(); n > window {
		t.Fatalf("InFlight = %d exceeds window %d", n, window)
	}
	if s := trA.Stats(); s.Backpressured == 0 {
		t.Fatalf("blocked send not counted, stats = %+v", s)
	}
	trA.Close()
	if err := <-done; err == nil {
		t.Fatal("blocked send should fail once the transport closes")
	}
}

// TestPeerRestartDetection pins the join/leave hook: a peer process
// fires the restart handler once when its name first appears (join) and
// again when it reappears with a larger hello incarnation (restart) —
// first sight must fire too, or a peer killed before its hello ever
// arrived would come back undetected and never be resupplied.
func TestPeerRestartDetection(t *testing.T) {
	trA := newReliable(t, nil, nil)
	trA.AddNode("a")
	restarted := make(chan string, 4)
	trA.SetRestartHandler(func(process string) { restarted <- process })

	await := func(what string) {
		t.Helper()
		select {
		case p := <-restarted:
			if p != "b" {
				t.Fatalf("%s handler got %q, want %q", what, p, "b")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("handler never fired for the %s", what)
		}
	}

	trB1 := newReliable(t, map[string]string{"a": trA.Addr()}, nil)
	trB1.AddNode("b")
	if err := trB1.Send("b", "a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	waitDrain(t, trA, "a", 1)
	await("join")
	select {
	case p := <-restarted:
		t.Fatalf("handler fired twice for one incarnation of %q", p)
	default:
	}
	trB1.Close()

	trB2 := newReliable(t, map[string]string{"a": trA.Addr()}, nil)
	trB2.AddNode("b")
	if err := trB2.Send("b", "a", []byte("two")); err != nil {
		t.Fatal(err)
	}
	waitDrain(t, trA, "a", 1)
	await("restart")
}

// FuzzAckRetransmit replays arbitrary loss scripts over the ack and
// retransmit path: whatever the script drops, every payload must arrive
// exactly once and in order, and the window must eventually clear. The
// seed corpus covers no loss, data-only loss, ack-only loss, mixed
// bursts, and the all-ones script.
func FuzzAckRetransmit(f *testing.F) {
	f.Add([]byte{0x00}, uint8(4))
	f.Add([]byte{0xaa, 0x55}, uint8(6))
	f.Add([]byte{0xff, 0x00, 0xff}, uint8(5))
	f.Add([]byte{0x0f, 0xf0}, uint8(8))
	f.Add([]byte{0xff}, uint8(5))
	f.Fuzz(func(t *testing.T, script []byte, n uint8) {
		if len(script) == 0 {
			script = []byte{0}
		}
		count := int(n)%8 + 1
		// Writes are counted per traffic class (data, ack): on one shared
		// counter the pass slot below can phase-lock onto one class — under
		// an all-ones script every ack follows the data write that just took
		// the slot, so no ack ever passes while go-back-N replays the window.
		var attempts [2]atomic.Int64
		drop := func(peer string, seq uint64, ack bool) bool {
			class := 0
			if ack {
				class = 1
			}
			i := attempts[class].Add(1) - 1
			if i%11 == 10 {
				return false // guarantee progress under all-ones scripts
			}
			bit := script[int(i)%len(script)] >> (uint(i) % 8) & 1
			return bit == 1
		}
		// Under an all-ones script a payload needs 11 × 11 data writes to
		// get itself and then its ack through, a window replay per ack
		// timeout: keep that timeout short, so that the worst script takes
		// a fraction of the 10 s the assertions below allow.
		lossy := func(c *Config) { c.DropWrite, c.RetransmitTimeout = drop, 5*time.Millisecond }
		trB := newReliable(t, nil, lossy)
		trB.AddNode("b")
		trA := newReliable(t, map[string]string{"b": trB.Addr()}, lossy)
		trA.AddNode("a")
		trB.AddPeer("a", trA.Addr())
		sent := sendSeq(t, trA, count)
		assertDelivered(t, trB, sent)
		if err := trA.Flush(tCtx(t, 10*time.Second)); err != nil {
			t.Fatalf("window never cleared: %v", err)
		}
	})
}
