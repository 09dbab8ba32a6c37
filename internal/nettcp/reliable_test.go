package nettcp

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"strings"
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

// newReliable builds a reliable transport, applying mut to the config
// before New.
func newReliable(t *testing.T, peers map[string]string, mut func(*Config)) *Transport {
	t.Helper()
	cfg := Config{Listen: "127.0.0.1:0", Peers: peers, Logf: t.Logf, Reliable: true}
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

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Sides of a killProxy.
const (
	dataSide = iota
	ackSide
)

// killProxy stands between two transports and scripts loss the way a
// network loses it: by killing connections. It forwards every connection
// it accepts to its target, both directions, reading the dialer's stream
// frame by frame. At each kill point — the k-th frame seen on a side,
// counted over all of that side's connections — it drops that frame and
// closes both ends of every connection of that side, or of both sides
// when both is set.
type killProxy struct {
	mu     sync.Mutex
	conns  map[net.Conn]int // the side each carried connection end is on
	seen   [2]int
	kills  [2][]int // ascending kill points per side
	both   bool
	closed bool
}

// killPair connects reliable transports hosting "a" and "b" through a
// killProxy: a's connections to b are its data side, and b's connections
// to a, which carry only acks, its ack side.
func killPair(t *testing.T, dataKills, ackKills []int, both bool) (trA, trB *Transport) {
	t.Helper()
	kp := &killProxy{conns: make(map[net.Conn]int), kills: [2][]int{dataKills, ackKills}, both: both}
	trB = newReliable(t, nil, nil)
	trB.AddNode("b")
	trA = newReliable(t, map[string]string{"b": kp.listen(t, dataSide, trB.Addr())}, nil)
	trA.AddNode("a")
	trB.AddPeer("a", kp.listen(t, ackSide, trA.Addr()))
	return trA, trB
}

// listen forwards the connections accepted on a fresh loopback port to
// target, counting their frames on side, and returns the port's address.
func (kp *killProxy) listen(t *testing.T, side int, target string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		kp.mu.Lock()
		kp.closed = true
		kp.killLocked(-1)
		kp.mu.Unlock()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go kp.forward(side, c, target)
		}
	}()
	return ln.Addr().String()
}

// forward carries one connection: the dialer's stream, frame by frame, to
// target, and target's close back to the dialer.
func (kp *killProxy) forward(side int, c net.Conn, target string) {
	s, err := net.Dial("tcp", target)
	if err != nil {
		c.Close()
		return
	}
	kp.mu.Lock()
	if kp.closed {
		kp.mu.Unlock()
		c.Close()
		s.Close()
		return
	}
	kp.conns[c], kp.conns[s] = side, side
	kp.mu.Unlock()
	defer c.Close()
	defer s.Close()
	go func() {
		io.Copy(c, s)
		c.Close()
	}()
	br := bufio.NewReader(c)
	var pre [4]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return
	}
	name, err := readLengthPrefixed(br, DefaultMaxFrame)
	if err != nil {
		return
	}
	inc, err := binary.ReadUvarint(br)
	if err != nil {
		return
	}
	hello := binary.AppendUvarint(pre[:], uint64(len(name)))
	hello = binary.AppendUvarint(append(hello, name...), inc)
	if _, err := s.Write(hello); err != nil {
		return
	}
	for {
		body, err := readLengthPrefixed(br, DefaultMaxFrame)
		if err != nil || !kp.pass(side) {
			return
		}
		if _, err := s.Write(append(binary.AppendUvarint(nil, uint64(len(body))), body...)); err != nil {
			return
		}
	}
}

// pass counts one frame on side and reports whether it goes through; at
// a kill point it closes the side's connections instead.
func (kp *killProxy) pass(side int) bool {
	kp.mu.Lock()
	defer kp.mu.Unlock()
	kp.seen[side]++
	if k := kp.kills[side]; len(k) == 0 || k[0] != kp.seen[side] {
		return true
	}
	kp.kills[side] = kp.kills[side][1:]
	kp.killLocked(side)
	return false
}

// killLocked closes the connections of side, or of both sides when side
// is -1 or kp.both is set.
func (kp *killProxy) killLocked(side int) {
	for c, s := range kp.conns {
		if s == side || side < 0 || kp.both {
			c.Close()
			delete(kp.conns, c)
		}
	}
}

// TestReliableDeliveryUnderLoss kills the data connections at scattered
// data frames, each time losing the frame in hand: every payload must
// come back through the window replayed on reconnect, in order, without
// duplicates reaching the inbox.
func TestReliableDeliveryUnderLoss(t *testing.T) {
	trA, trB := killPair(t, []int{1, 3, 7, 15}, nil, false)
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

// TestLostAcksForceDupSuppression kills every connection at the first
// acks: the sender replays frames the receiver already delivered, and the
// receive window must swallow them (DupDropped counts, the inbox sees
// each payload once).
func TestLostAcksForceDupSuppression(t *testing.T) {
	trA, trB := killPair(t, nil, []int{1, 2, 3, 4, 5}, true)
	sent := sendSeq(t, trA, 10)
	assertDelivered(t, trB, sent)
	if err := trA.Flush(tCtx(t, 5*time.Second)); err != nil {
		t.Fatalf("window never cleared (acks lost for good): %v", err)
	}
	if s := trB.Stats(); s.DupDropped == 0 {
		t.Fatalf("expected duplicate suppression after lost acks, receiver stats = %+v", s)
	}
}

// TestLastAckResentAfterRedial kills only the ack side, at the ack of the
// last data frame. The data connection survives and the sender never
// reconnects, so its window clears only because the receiver re-sends its
// cumulative ack after redialing.
func TestLastAckResentAfterRedial(t *testing.T) {
	const n = 3
	trA, trB := killPair(t, nil, []int{n}, false)
	for i := range n {
		if err := trA.Send("a", "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		// One ack frame per data frame: the n-th is the last frame's.
		if err := trA.Flush(tCtx(t, 10*time.Second)); err != nil {
			t.Fatalf("frame %d: window never cleared: %v", i, err)
		}
	}
	waitDrain(t, trB, "b", n)
	if a, b := trA.Stats(), trB.Stats(); a.Reconnects != 0 || a.Retransmits != 0 || b.Reconnects != 1 {
		t.Fatalf("want only the ack side redialed, once: sender %+v, receiver %+v", a, b)
	}
}

// TestAckRedialDuringInboundData kills the ack side again and again while
// data flows, so each redial re-queues the cumulative acks while readers
// queue newer ones. The data side never breaks and the sender never
// replays, so a newer ack the redial lost would, at the tail, leave the
// window full for good.
func TestAckRedialDuringInboundData(t *testing.T) {
	trA, trB := killPair(t, nil, []int{1, 2, 3, 5, 8, 13, 21, 34, 55}, false)
	sent := sendSeq(t, trA, 400)
	assertDelivered(t, trB, sent)
	if err := trA.Flush(tCtx(t, 10*time.Second)); err != nil {
		t.Fatalf("window never cleared (an ack was lost in a redial): %v", err)
	}
	if s := trA.Stats(); s.Reconnects != 0 {
		t.Fatalf("the sender reconnected, though only the ack side was killed: %+v", s)
	}
}

// TestDeadIncarnationNotReacked restarts the sender before the receiver's
// ack connection redials. The acks re-sent after that dial must not cover
// the dead incarnation's link: its count would clear the new
// incarnation's fresh sequence numbers before any of its frames arrived.
func TestDeadIncarnationNotReacked(t *testing.T) {
	trB := newReliable(t, nil, nil)
	trB.AddNode("b")
	trA1 := newReliable(t, map[string]string{"b": trB.Addr()}, nil)
	trA1.AddNode("a")
	trB.AddPeer("a", trA1.Addr())
	sendSeq(t, trA1, 5)
	if err := trA1.Flush(tCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	trA1.Close()
	waitFor(t, "the dead incarnation's connection to end", func() bool {
		trB.mu.Lock()
		defer trB.mu.Unlock()
		return len(trB.live) == 0
	})

	// The new incarnation's frames stall in a listener that never
	// accepts, so only an ack can clear its window.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stall.Close() })
	trA2 := newReliable(t, map[string]string{"b": stall.Addr().String()}, nil)
	trA2.AddNode("a")
	sendSeq(t, trA2, 5)
	waitFor(t, "the new incarnation's writer to take its frames", func() bool {
		return trA2.QueueDepths()["b"] == 0
	})
	trB.AddPeer("a", trA2.Addr())
	waitFor(t, "the receiver's redial", func() bool {
		trA2.mu.Lock()
		defer trA2.mu.Unlock()
		return trA2.seenInc["b"] != 0
	})
	time.Sleep(100 * time.Millisecond) // a re-sent ack follows the hello at once
	if n := trA2.InFlight(); n != 5 {
		t.Fatalf("InFlight = %d, want 5: the dead incarnation's ack cleared fresh frames", n)
	}
}

// TestSequenceGapClosesConnection pins the receive side of replay: a
// sequenced frame that skips ahead on a link with state closes the
// connection, so that the sender replays from the acknowledged point, and
// nothing past the gap is delivered.
func TestSequenceGapClosesConnection(t *testing.T) {
	gap := make(chan string, 1)
	tr := newReliable(t, nil, func(c *Config) {
		c.Logf = func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.Contains(line, "jumps past") {
				select {
				case gap <- line:
				default:
				}
			}
		}
	})
	tr.AddNode("b")
	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	bw.Write(magic[:])
	bw.WriteString("\x01a\x01") // hello "a", incarnation 1
	for _, seq := range []uint64{1, 3} {
		if err := writeFrame(bw, frame{src: "a", dst: "b", payload: []byte{byte(seq)}, seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after a sequence gap (read: %v)", err)
	}
	select {
	case line := <-gap:
		t.Log(line)
	default:
		t.Fatal("the connection closed, but not for the gap")
	}
	if msgs := tr.Drain("b"); len(msgs) != 1 || msgs[0].Payload[0] != 1 {
		t.Fatalf("delivered %v, want seq 1 alone", msgs)
	}
}

// TestHelloNameIsStable pins the hello of a process whose nodes' names
// differ in length (n1, n10, …): every connection it dials must parse to
// its first registered node and its incarnation, the receiver must see it
// join once, and no connection may be dropped and re-dialed.
func TestHelloNameIsStable(t *testing.T) {
	trB := newT(t, nil)
	joined := make(chan string, 16)
	trB.SetRestartHandler(func(process string) { joined <- process })
	peers := make(map[string]string)
	for i := range 8 {
		name := fmt.Sprintf("p%d", i)
		trB.AddNode(name)
		peers[name] = trB.Addr()
	}
	trA := newT(t, peers)
	for _, name := range []string{"n1", "n10", "n2", "n100", "n3", "n20"} {
		trA.AddNode(name)
	}
	for name := range peers {
		if err := trA.Send("n1", name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for deadline := time.Now().Add(10 * time.Second); got < len(peers) && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for name := range peers {
			got += len(trB.Drain(name))
		}
	}
	if got != len(peers) {
		t.Errorf("%d of %d frames delivered", got, len(peers))
	}
	trB.mu.Lock()
	seen := maps.Clone(trB.seenInc)
	trB.mu.Unlock()
	if len(seen) != 1 || seen["n1"] != trA.inc {
		t.Errorf("hellos parsed to %v, want only n1 at incarnation %d", seen, trA.inc)
	}
	select {
	case p := <-joined:
		if p != "n1" {
			t.Errorf("join reported for %q, want n1", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restart handler never fired")
	}
	select {
	case p := <-joined:
		t.Errorf("restart handler fired again, for %q", p)
	default:
	}
	if s := trA.Stats(); s.Reconnects != 0 {
		t.Errorf("Reconnects = %d, want 0", s.Reconnects)
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
// peer unreachable, exactly window (4096) frames are accepted and the next
// send blocks (observable via the Backpressured counter) until Close fails
// it.
func TestBackpressureBoundsQueue(t *testing.T) {
	// A dead address: reserve a port and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	trA := newReliable(t, map[string]string{"b": dead}, nil)
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

// FuzzReconnectReplay kills connections at arbitrary points on the data
// side and the ack side, each kill closing its own side's connections or,
// with both, every connection: whatever the script kills, every payload
// must arrive exactly once and in order, and Flush must return within
// 10 s. The seed corpus covers no kills, data-side kills, ack-side kills,
// both, and bursts of kills at consecutive frames on both sides.
func FuzzReconnectReplay(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(4), false)
	f.Add([]byte{0, 1}, []byte{}, uint8(6), false)
	f.Add([]byte{}, []byte{0, 2}, uint8(5), false)
	f.Add([]byte{}, []byte{0, 2}, uint8(5), true)
	f.Add([]byte{1, 0, 3}, []byte{0, 1}, uint8(8), false)
	f.Add([]byte{1, 0, 3}, []byte{0, 1}, uint8(8), true)
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 0, 0, 0}, uint8(7), true)
	f.Fuzz(func(t *testing.T, data, acks []byte, n uint8, both bool) {
		trA, trB := killPair(t, killPoints(data), killPoints(acks), both)
		sent := sendSeq(t, trA, int(n)%8+1)
		assertDelivered(t, trB, sent)
		if err := trA.Flush(tCtx(t, 10*time.Second)); err != nil {
			t.Fatalf("window never cleared: %v", err)
		}
	})
}

// killPoints turns fuzz bytes into at most 8 ascending kill points, each
// byte the gap (0–7 frames) after the previous one.
func killPoints(gaps []byte) []int {
	var points []int
	k := 0
	for _, g := range gaps[:min(len(gaps), 8)] {
		k += 1 + int(g%8)
		points = append(points, k)
	}
	return points
}
