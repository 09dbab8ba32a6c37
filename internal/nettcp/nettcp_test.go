package nettcp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"provnet/internal/netsim"
)

func newT(t *testing.T, peers map[string]string) *Transport {
	t.Helper()
	tr, err := New(Config{Listen: "127.0.0.1:0", Peers: peers, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// waitDrain polls until to's inbox yields messages or the deadline hits.
func waitDrain(t *testing.T, tr *Transport, to string, want int) []netsim.Message {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var msgs []netsim.Message
	for len(msgs) < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages at %q, have %v", want, to, msgs)
		}
		msgs = append(msgs, tr.Drain(to)...)
		time.Sleep(5 * time.Millisecond)
	}
	return msgs
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{src: "a", dst: "b", payload: []byte{1, 2, 3}},
		{src: "", dst: "b", payload: nil},
		{src: "node-with-a-long-name", dst: "x", payload: bytes.Repeat([]byte{0xAB}, 300)},
		{src: "a", dst: "b", payload: []byte{9}, seq: 7},
		{src: "a", dst: "b", payload: []byte("hs"), seq: 300},
		{src: "b", dst: "a", seq: 42, ack: true},
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, f := range frames {
		if err := writeFrame(bw, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	for i, want := range frames {
		body, err := readLengthPrefixed(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := len(body) + uvarintLen(uint64(len(body))); got != frameWireSize(want.src, want.dst, want.payload, want.seq) {
			t.Errorf("frame %d: wire size %d, frameWireSize %d", i, got, frameWireSize(want.src, want.dst, want.payload, want.seq))
		}
		flags, src, dst, seq, payload, err := parseFrame(body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		ack := flags&flagAck != 0
		if flags&1 != 0 || ack != want.ack || src != want.src || dst != want.dst || seq != want.seq || !bytes.Equal(payload, want.payload) {
			t.Errorf("frame %d: got (%#x,%q,%q,%d,%x), want (ack %v,%q,%q,%d,%x) with bit0 clear",
				i, flags, src, dst, seq, payload, want.ack, want.src, want.dst, want.seq, want.payload)
		}
	}
	// Bit0 is reserved: a frame that sets it still parses as plain data.
	if _, src, dst, seq, payload, err := parseFrame([]byte{1, 1, 'a', 1, 'b', 'x'}); err != nil || src != "a" || dst != "b" || seq != 0 || string(payload) != "x" {
		t.Errorf("bit0 frame parsed as (%q,%q,%d,%q,%v), want (a,b,0,x,nil)", src, dst, seq, payload, err)
	}
}

// TestAckFrameGolden pins the exact bytes of an ack control frame — the
// layout documented in docs/WIRE.md ("TCP stream framing"). An ack from
// node "b" acknowledging frames 1..5 on the a→b link:
//
//	06        flags: bit1 sequenced + bit2 ack
//	01 62     src "b" (the acking node)
//	01 61     dst "a" (the original sender)
//	05        cumulative acknowledged sequence number
//
// prefixed by the body length (06).
// TestReadHostileLength pins reject-before-allocating on the stream: a
// peer announcing a DefaultMaxFrame block and sending 10 bytes of it
// gets an error, having cost under 1 MiB — the length is its word, not a
// buffer size. A block spanning several read chunks still arrives whole.
func TestReadHostileLength(t *testing.T) {
	hostile := append(binary.AppendUvarint(nil, DefaultMaxFrame), make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readLengthPrefixed(bufio.NewReader(bytes.NewReader(hostile)), DefaultMaxFrame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("allocated %d bytes on the word of a %d-byte length, want < 1 MiB", got, DefaultMaxFrame)
	}

	big := bytes.Repeat([]byte("provnet"), 3*readChunk/7+5)
	got, err := readLengthPrefixed(bufio.NewReader(bytes.NewReader(append(binary.AppendUvarint(nil, uint64(len(big))), big...))), DefaultMaxFrame)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("a %d-byte block read back as %d bytes, %v", len(big), len(got), err)
	}
}

// FuzzReadFrame feeds arbitrary bytes through the stream decoder, the
// way a connection's reader loop does: length-prefixed blocks, each
// parsed as a frame. Nothing may panic; reading may allocate no more
// than the bytes present allow (a hostile length prefix costs one read
// chunk, never DefaultMaxFrame); and every frame that parses must come
// back unchanged from writeFrame's encoding of it.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	bw := bufio.NewWriter(&good)
	for _, fr := range []frame{
		{src: "n1", dst: "n2", payload: []byte("data")},
		{src: "n1", dst: "n2", seq: 7, payload: []byte{0, 1, 2}},
		{src: "b", dst: "a", seq: 5, ack: true},
	} {
		if err := writeFrame(bw, fr); err != nil {
			f.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(append(binary.AppendUvarint(nil, DefaultMaxFrame), make([]byte, 10)...))
	f.Add(append(binary.AppendUvarint(nil, DefaultMaxFrame+1), 0))
	f.Add([]byte{0x03, 0x02, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, in []byte) {
		br := bufio.NewReader(bytes.NewReader(in))
		for {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			body, err := readLengthPrefixed(br, DefaultMaxFrame)
			runtime.ReadMemStats(&after)
			// A block's buffer starts at one read chunk and grows only
			// as its bytes arrive; slices.Grow may double it.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(readChunk+4*len(in)+1<<16); got > limit {
				t.Fatalf("reading %d input bytes allocated %d bytes, limit %d", len(in), got, limit)
			}
			if err != nil {
				return
			}
			flags, src, dst, seq, payload, err := parseFrame(body)
			if err != nil {
				continue
			}
			var out bytes.Buffer
			w := bufio.NewWriter(&out)
			if err := writeFrame(w, frame{src: src, dst: dst, seq: seq, payload: payload, ack: flags&flagAck != 0}); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			again, err := readLengthPrefixed(bufio.NewReader(&out), DefaultMaxFrame)
			if err != nil {
				t.Fatalf("re-reading the encoded frame: %v", err)
			}
			flags2, src2, dst2, seq2, payload2, err := parseFrame(again)
			if err != nil || flags2 != flags&(flagSequenced|flagAck) || src2 != src || dst2 != dst || seq2 != seq || !bytes.Equal(payload2, payload) {
				t.Fatalf("frame (%#x %q→%q seq %d payload %x) came back as (%#x %q→%q seq %d payload %x), %v",
					flags, src, dst, seq, payload, flags2, src2, dst2, seq2, payload2, err)
			}
		}
	})
}

func TestAckFrameGolden(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, frame{src: "b", dst: "a", seq: 5, ack: true}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x06, 0x06, 0x01, 0x62, 0x01, 0x61, 0x05}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("ack frame bytes = % x, want % x", buf.Bytes(), want)
	}
}

func TestParseFrameCorrupt(t *testing.T) {
	for _, body := range [][]byte{
		nil,
		{0},
		{0, 5},
		{0, 200, 1},
		{flagSequenced, 1, 'a', 1, 'b'},    // sequenced but no seq bytes
		{flagSequenced, 1, 'a', 1, 'b', 0}, // sequence number zero
	} {
		if _, _, _, _, _, err := parseFrame(body); err == nil {
			t.Errorf("parseFrame(%x): expected error", body)
		}
	}
}

func TestLocalDelivery(t *testing.T) {
	tr := newT(t, nil)
	tr.AddNode("a")
	tr.AddNode("b")
	if err := tr.Send("a", "b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if n := tr.PendingCount(); n != 1 {
		t.Fatalf("PendingCount = %d", n)
	}
	msgs := tr.Drain("b")
	if len(msgs) != 1 || msgs[0].From != "a" || string(msgs[0].Payload) != "hi" {
		t.Fatalf("Drain = %v", msgs)
	}
	if s := tr.Stats(); s.Messages != 1 || s.Bytes == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRemoteDelivery(t *testing.T) {
	trB := newT(t, nil)
	trB.AddNode("b")
	trA := newT(t, map[string]string{"b": trB.Addr()})
	trA.AddNode("a")

	for _, p := range []string{"data", "more"} {
		if err := trA.Send("a", "b", []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	msgs := waitDrain(t, trB, "b", 2)
	if msgs[0].From != "a" || string(msgs[0].Payload) != "data" || string(msgs[1].Payload) != "more" {
		t.Fatalf("msgs = %v", msgs)
	}
	if s := trB.Stats(); s.Messages != 2 || s.Bytes != trA.Stats().Bytes {
		t.Fatalf("receiver stats = %+v, sender %+v", s, trA.Stats())
	}
}

func TestOrphanAdoptedOnAddNode(t *testing.T) {
	trB := newT(t, nil) // nothing registered yet
	trA := newT(t, map[string]string{"b": trB.Addr()})
	trA.AddNode("a")
	if err := trA.Send("a", "b", []byte("early")); err != nil {
		t.Fatal(err)
	}
	// Wait for the frame to land in the orphan buffer, then register.
	deadline := time.Now().Add(10 * time.Second)
	for trB.Stats().Messages == 0 {
		if time.Now().After(deadline) {
			t.Fatal("frame never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	trB.AddNode("b")
	msgs := waitDrain(t, trB, "b", 1)
	if string(msgs[0].Payload) != "early" {
		t.Fatalf("msgs = %v", msgs)
	}
}

func TestDialRetryBeforeListenerUp(t *testing.T) {
	// Reserve a port, close it, point a sender at it: the writer must
	// retry until a listener appears there and then deliver.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	trA, err := New(Config{Listen: "127.0.0.1:0", Peers: map[string]string{"b": addr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trA.AddNode("a")
	if err := trA.Send("a", "b", []byte("patience")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let a few dials fail
	trB, err := New(Config{Listen: addr, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	trB.AddNode("b")
	msgs := waitDrain(t, trB, "b", 1)
	if string(msgs[0].Payload) != "patience" {
		t.Fatalf("msgs = %v", msgs)
	}
}

func TestSendUnknownNode(t *testing.T) {
	tr := newT(t, nil)
	tr.AddNode("a")
	if err := tr.Send("a", "nowhere", []byte("x")); err == nil {
		t.Fatal("expected error")
	}
	if s := tr.Stats(); s.DroppedMsg != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNotifyFiresOnArrival(t *testing.T) {
	trB := newT(t, nil)
	trB.AddNode("b")
	var fired atomic.Int64
	trB.Notify(func() { fired.Add(1) })
	trA := newT(t, map[string]string{"b": trB.Addr()})
	trA.AddNode("a")
	if err := trA.Send("a", "b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	waitDrain(t, trB, "b", 1)
	if fired.Load() == 0 {
		t.Fatal("notify callback never fired")
	}
}

func TestCloseIdempotentAndContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr, err := New(Config{Listen: "127.0.0.1:0", Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	tr.AddNode("a")
	cancel() // context-aware shutdown
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := tr.Send("a", "a", nil); err != nil {
			break // closed
		}
		if time.Now().After(deadline) {
			t.Fatal("context cancellation never closed the transport")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStalePreambleRefused pins what the stream version is for: a process
// built before the datagram format changed (it opens with the previous
// stream version) is refused at the preamble — the connection is closed, the refusal logged,
// and nothing it wrote reaches an inbox.
func TestStalePreambleRefused(t *testing.T) {
	logged := make(chan string, 1) // the one refusal; later lines are dropped
	tr, err := New(Config{Listen: "127.0.0.1:0", Logf: func(format string, args ...any) {
		select {
		case logged <- format:
		default:
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.AddNode("b")

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	stale := magic
	stale[3]-- // the stream version before this one
	bw.Write(stale[:])
	bw.WriteString("\x01a\x01") // hello "a", incarnation 1
	if err := writeFrame(bw, frame{src: "a", dst: "b", payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stale peer's connection still open (read: %v)", err)
	}
	select {
	case line := <-logged:
		if line != "nettcp: bad preamble from %s" {
			t.Errorf("logged %q, want the preamble refusal", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("refusal not logged")
	}
	if n := tr.PendingCount(); n != 0 {
		t.Errorf("%d frames delivered from a refused connection", n)
	}
}
