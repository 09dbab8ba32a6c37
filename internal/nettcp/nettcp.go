// Package nettcp is the socket-backed transport: the same
// Send/Drain/Stats surface as internal/netsim, carried over real TCP
// connections so N OS processes can each host one node (or a few) of a
// provnet network. internal/core stays transport-agnostic — the
// datagrams it seals are shipped here as opaque payloads, so the
// signature, session-handshake, retraction, and termination machinery
// work unchanged across process boundaries.
//
// # Stream protocol
//
// Each (sending process → remote node) pair is one TCP connection, opened
// lazily by the sending side and re-opened (with exponential backoff) when
// it drops. The byte stream is:
//
//	preamble  "PNT4" (4 bytes: magic + stream version)
//	hello     uvarint n, n bytes — a name identifying the sending
//	          process (its first registered node), used for diagnostics
//	          and restart detection; then uvarint incarnation — a value
//	          strictly increasing across restarts of that process
//	frame*    uvarint len, len bytes of body, where
//	          body = flags (1 byte; bit0 reserved: written 0, ignored on
//	                 read; bit1 = sequenced, bit2 = ack control frame)
//	               + uvarint s, s bytes — source node name
//	               + uvarint d, d bytes — destination node name
//	               + uvarint seq (present iff bit1; for ack frames this
//	                 is the cumulative acknowledged sequence number)
//	               + payload (one core datagram, opaque here;
//	                 empty for ack frames)
//
// See docs/WIRE.md for the datagram formats riding inside the frames.
//
// # Reliability
//
// With Config.Reliable set, every remote frame is assigned a sequence
// number on its directed (src,dst) node link and kept in a per-peer
// window of at most 4096 frames from the moment the writer takes it
// until the receiver acknowledges it. The receiver acks cumulatively
// (coalescing while the return writer is busy), suppresses duplicates by
// sequence window, and closes the connection on a sequence gap. There is
// no ack timeout: TCP delivers a live connection's bytes in order or the
// connection breaks, so the window is replayed on reconnect only. A
// reader on each outbound connection notices when the peer ends it, and
// the writer reconnects at once while delivery on it is unproven (the
// window holds frames, or acks went out on it); after each dial it
// re-sends its cumulative acks. A full window blocks Send — backpressure
// into the round scheduler — until acks free space or the transport
// closes. Ack frames are transport-internal: they are never delivered
// upward, and are counted separately (Stats.AckMessages/AckBytes) so the
// reliability overhead is measurable next to the data plane.
//
// The hello incarnation detects peer joins and restarts: when a process
// observes a peer name for the first time, or a known name reappear
// with a larger incarnation, the restart handler (SetRestartHandler)
// fires so upper layers can (re-)announce soft state the peer does not
// hold — a restarted peer lost what the dead incarnation acknowledged,
// and a peer whose first hello arrives late may have missed traffic
// sent while its predecessor was dead without ever being seen alive.
// Receive dedup state is scoped by incarnation, so a restarted sender's
// fresh sequence numbers are not mistaken for duplicates.
//
// Acks are transport control, below the "says" authentication layer:
// they assert TCP-level receipt, not tuple authenticity, which is
// still end-to-end via the sealed datagrams they acknowledge.
//
// # Ordering and determinism
//
// One connection per (sending process → remote node) means frames from
// one sender to one node arrive in send order — the property the session
// security stack needs (a handshake frame must precede the data frames
// it unlocks). A reconnect preserves it: the window is replayed in order
// ahead of newer frames, and replayed frames the receiver already
// delivered fall into the duplicate window. Interleaving *between*
// senders is real network nondeterminism; unlike netsim there is no
// global deterministic drain order. The distributed fixpoint still
// converges to the same tables and provenance as the in-memory run
// because evaluation is confluent — see docs/ARCHITECTURE.md and
// core.TestTCPMatchesNetsim.
//
// # Accounting
//
// Stats counters are per process: a frame is charged once on the sending
// side (at enqueue) and once on the receiving side (at arrival), each
// charging the actual framed size (length prefix + flags + source +
// destination + sequence number if present + payload). Local deliveries
// between co-hosted nodes are charged once, like netsim's. Frames replayed
// after a reconnect are not re-charged to Messages/Bytes; they increment
// Stats.Retransmits instead.
package nettcp

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"provnet/internal/netsim"
)

// magic is the stream preamble: protocol magic plus stream version.
// Version 2 added the hello incarnation and the sequenced/ack frame
// flag bits; versions 3 (one kind-tagged frame) and 4 (one provenance
// table per condensed data frame) changed nothing in the stream and exist
// because the datagrams inside did (docs/WIRE.md) — a process built
// before that is refused here, once and logged, instead of having every
// datagram it sends dropped as unparseable.
var magic = [4]byte{'P', 'N', 'T', '4'}

// Frame flag bits. Bit 0 is reserved: written 0 and ignored on read.
const (
	flagSequenced = 1 << 1 // frame carries a uvarint sequence number
	flagAck       = 1 << 2 // transport ack; seq is the cumulative ack
)

const (
	// defaultDialTimeout bounds each connection attempt.
	defaultDialTimeout = 5 * time.Second
	// DefaultMaxFrame caps accepted frame sizes; a larger frame poisons
	// the connection (it is closed and the dialer re-opens it).
	DefaultMaxFrame = 1 << 24 // 16 MiB: far above any real envelope
)

const (
	// retryMin and retryMax bound the reconnect backoff.
	retryMin = 50 * time.Millisecond
	retryMax = 2 * time.Second
	// window caps each peer's outstanding frames (queued + unacked); a
	// full window blocks Send. Reliable only.
	window = 4096
)

// Config configures a Transport.
type Config struct {
	// Listen is the TCP address to accept peer connections on
	// (e.g. "127.0.0.1:7001"; ":0" picks a free port — see Addr).
	Listen string
	// Peers maps remote node names to their dial addresses. Sends to a
	// node that is neither local (AddNode) nor a peer are dropped.
	Peers map[string]string
	// Context, when non-nil, bounds the transport's lifetime: its
	// cancellation closes the transport, aborting in-flight dials and
	// reads (the context-aware shutdown the lifecycle driver composes
	// with). Close works regardless.
	Context context.Context
	// Reliable enables sequence numbers, cumulative acks, the bounded
	// replay window, and duplicate suppression (see the package
	// comment). Off, the transport has TCP's delivery guarantee only:
	// frames accepted by a crashed peer's kernel are lost.
	Reliable bool
	// Logf, when set, receives connection lifecycle diagnostics (dial
	// failures, dropped frames, protocol errors). Default: silent.
	Logf func(format string, args ...any)
}

// Transport is the TCP implementation of core.Transport. Create one per
// process with New, register the locally hosted node(s) with AddNode,
// and hand it to core via Config.Transport + Config.LocalNodes.
type Transport struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	ln     net.Listener
	inc    uint64 // this process's incarnation (monotonic across restarts)

	mu     sync.Mutex
	name   string // the hello's process name: the first AddNode
	local  map[string]*inbox
	peers  map[string]*peer
	conns  map[net.Conn]struct{}
	closed bool
	// orphans parks inbound frames for local names not yet registered:
	// processes of one deployment start at different times, and a frame
	// that raced a slow process's AddNode must not be lost. AddNode
	// adopts them.
	orphans map[string][]netsim.Message
	// recvSeq is the receive-side duplicate window: highest delivered
	// sequence number per (sender incarnation, src, dst) link. Scoping
	// by incarnation keeps a restarted sender's fresh numbering apart
	// from its dead predecessor's.
	recvSeq map[recvKey]uint64
	// seenInc remembers the last hello incarnation per peer process
	// name; a larger one on a later connection is a restart.
	seenInc map[string]uint64
	// live counts the open inbound connections per sender incarnation:
	// acks re-sent after a dial only cover links whose sender can still
	// want them.
	live map[uint64]int

	notify  atomic.Pointer[func()]
	restart atomic.Pointer[func(process string)]
	wg      sync.WaitGroup

	messages      atomic.Int64
	bytes         atomic.Int64
	dropped       atomic.Int64
	reconnects    atomic.Int64
	requeues      atomic.Int64
	parked        atomic.Int64
	acks          atomic.Int64
	ackBytes      atomic.Int64
	retransmits   atomic.Int64
	dupDropped    atomic.Int64
	backpressured atomic.Int64
}

// recvKey scopes the duplicate window by sender incarnation and link.
type recvKey struct {
	inc      uint64
	src, dst string
}

// inbox queues inbound datagrams for one locally hosted node.
type inbox struct {
	mu    sync.Mutex
	queue []netsim.Message
}

// frame is one outbound datagram awaiting shipment to a peer.
type frame struct {
	src, dst string
	payload  []byte
	seq      uint64 // link sequence number; cumulative ack when ack
	ack      bool
}

// peer is one remote process: a pending queue drained by a dedicated
// reconnecting writer goroutine, plus the reliability window.
type peer struct {
	name string

	mu      sync.Mutex
	cond    *sync.Cond
	addr    string
	conn    net.Conn // the writer's connection; nil once the peer ended it
	pending []frame
	writing int // 1 while the writer holds an unsequenced frame
	closed  bool

	// Reliability state (Config.Reliable). seqs assigns per-(src,dst)
	// link sequence numbers at enqueue; unacked holds sequenced frames
	// from the moment the writer takes them until the cumulative ack
	// covers them (send order); ackDue holds coalesced outbound acks
	// keyed by local acking node.
	seqs    map[string]uint64
	unacked []frame
	ackDue  map[string]uint64
}

// New creates a Transport listening on cfg.Listen and starts one writer
// goroutine per configured peer. The listener is live on return (Addr
// reports the bound address); peer connections are dialed lazily on
// first send.
func New(cfg Config) (*Transport, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	parent := cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("nettcp: listen %s: %w", cfg.Listen, err)
	}
	ctx, cancel := context.WithCancel(parent)
	t := &Transport{
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		ln:      ln,
		inc:     uint64(time.Now().UnixNano()),
		local:   make(map[string]*inbox),
		peers:   make(map[string]*peer),
		conns:   make(map[net.Conn]struct{}),
		orphans: make(map[string][]netsim.Message),
		recvSeq: make(map[recvKey]uint64),
		seenInc: make(map[string]uint64),
		live:    make(map[uint64]int),
	}
	for name, addr := range cfg.Peers {
		t.AddPeer(name, addr)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	if cfg.Context != nil {
		go func() {
			<-ctx.Done()
			t.Close()
		}()
	}
	return t, nil
}

// Addr returns the bound listen address (useful with Listen ":0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// AddNode registers a locally hosted node, adopting any inbound frames
// that arrived for it before registration (the startup race between
// processes of one deployment).
func (t *Transport) AddNode(name string) {
	t.mu.Lock()
	if _, ok := t.local[name]; ok {
		t.mu.Unlock()
		return
	}
	if len(t.local) == 0 {
		t.name = name
	}
	box := &inbox{queue: t.orphans[name]}
	delete(t.orphans, name)
	t.local[name] = box
	adopted := len(box.queue) > 0
	t.mu.Unlock()
	if adopted {
		t.wake()
	}
}

// AddPeer registers (or re-addresses) a remote node and starts its
// writer. Registering before traffic flows is the caller's job; sends to
// unregistered names error. Re-registering an existing peer name with a
// new address only takes effect on the next reconnect.
func (t *Transport) AddPeer(name, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if p, ok := t.peers[name]; ok {
		p.mu.Lock()
		p.addr = addr
		p.mu.Unlock()
		return
	}
	p := &peer{name: name, addr: addr, seqs: make(map[string]uint64)}
	p.cond = sync.NewCond(&p.mu)
	t.peers[name] = p
	t.wg.Add(1)
	go t.writerLoop(p)
}

// Notify registers fn to run after every inbound enqueue: the lifecycle
// driver's wake-up for datagrams arriving between rounds.
func (t *Transport) Notify(fn func()) { t.notify.Store(&fn) }

// SetRestartHandler registers fn to run when a peer process joins
// (first hello) or reappears with a larger hello incarnation — the
// join/leave hook: upper layers re-announce soft state the peer does
// not hold. Firing on first sight as well as on restart closes a
// detection gap: a peer killed before its hello ever reached this
// process looks like a fresh join when its replacement comes up, yet
// still needs the re-announcement. fn receives the peer's hello process
// name and runs on its own goroutine.
func (t *Transport) SetRestartHandler(fn func(process string)) { t.restart.Store(&fn) }

// Send enqueues a datagram, charging its bytes. Local destinations
// deliver in process; remote ones are handed to the peer's
// writer (charged now, shipped as the connection allows — TCP delivery
// is asynchronous, unlike netsim's synchronous enqueue). In reliable
// mode a full peer window blocks here until acknowledgements free space
// — the backpressure that keeps a fast sender from burying a slow or
// crashed peer.
func (t *Transport) Send(from, to string, payload []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("nettcp: transport closed")
	}
	box := t.local[to]
	p := t.peers[to]
	t.mu.Unlock()

	if box != nil {
		t.enqueue(box, from, to, payload)
		t.wake()
		return nil
	}
	if p == nil {
		t.dropped.Add(1)
		return fmt.Errorf("nettcp: send to unknown node %q (not local, no peer address)", to)
	}
	f := frame{src: from, dst: to, payload: payload}
	p.mu.Lock()
	if t.cfg.Reliable {
		waited := false
		for len(p.pending)+len(p.unacked) >= window && !p.closed {
			if !waited {
				waited = true
				t.backpressured.Add(1)
			}
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return errors.New("nettcp: transport closed")
		}
		p.seqs[from]++
		f.seq = p.seqs[from]
	}
	p.pending = append(p.pending, f)
	p.cond.Broadcast()
	p.mu.Unlock()
	t.charge(from, to, payload, f.seq)
	return nil
}

// charge records one frame in the stats counters.
func (t *Transport) charge(src, dst string, payload []byte, seq uint64) {
	t.messages.Add(1)
	t.bytes.Add(int64(frameWireSize(src, dst, payload, seq)))
}

// enqueue delivers one datagram into a local inbox; the caller then
// wakes the arrival notifier.
func (t *Transport) enqueue(box *inbox, from, to string, payload []byte) {
	t.charge(from, to, payload, 0)
	box.mu.Lock()
	box.queue = append(box.queue, netsim.Message{From: from, To: to, Payload: payload})
	box.mu.Unlock()
}

// wake fires the arrival notifier.
func (t *Transport) wake() {
	if fn := t.notify.Load(); fn != nil {
		(*fn)()
	}
}

// Drain removes and returns all datagrams queued for a local node, in
// arrival order (per-sender send order is preserved by the per-node
// connections and the in-order replay on reconnect; interleaving between
// senders is arrival order).
func (t *Transport) Drain(to string) []netsim.Message {
	t.mu.Lock()
	box := t.local[to]
	t.mu.Unlock()
	if box == nil {
		return nil
	}
	box.mu.Lock()
	msgs := box.queue
	box.queue = nil
	box.mu.Unlock()
	return msgs
}

// PendingCount reports the total inbound backlog across local nodes.
func (t *Transport) PendingCount() int {
	t.mu.Lock()
	boxes := make([]*inbox, 0, len(t.local))
	for _, box := range t.local {
		boxes = append(boxes, box)
	}
	t.mu.Unlock()
	total := 0
	for _, box := range boxes {
		box.mu.Lock()
		total += len(box.queue)
		box.mu.Unlock()
	}
	return total
}

// InFlight reports the outbound frames this process has accepted but
// cannot yet prove delivered: queued behind writers, held by writers,
// or (reliable) taken and awaiting acknowledgement. Ack control frames are
// excluded — the data they acknowledge already arrived. This is the
// transport's contribution to the distributed termination gauge: zero
// here plus empty inboxes everywhere means no
// datagram is in flight anywhere in the deployment.
func (t *Transport) InFlight() int {
	t.mu.Lock()
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	total := 0
	for _, p := range peers {
		p.mu.Lock()
		total += p.writing + len(p.unacked)
		for _, f := range p.pending {
			if !f.ack {
				total++
			}
		}
		p.mu.Unlock()
	}
	return total
}

// Flush blocks until every outbound frame has been shipped — and, in
// reliable mode, acknowledged — or ctx ends. Callers flush before Close
// when the last frames matter (a root broadcasting TERMINATE).
func (t *Transport) Flush(ctx context.Context) error {
	for {
		if t.InFlight() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.ctx.Done():
			return errors.New("nettcp: transport closed")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Stats returns a copy of this process's transport counters.
func (t *Transport) Stats() netsim.Stats {
	return netsim.Stats{
		Messages:      t.messages.Load(),
		Bytes:         t.bytes.Load(),
		DroppedMsg:    t.dropped.Load(),
		Reconnects:    t.reconnects.Load(),
		Requeues:      t.requeues.Load(),
		Parked:        t.parked.Load(),
		AckMessages:   t.acks.Load(),
		AckBytes:      t.ackBytes.Load(),
		Retransmits:   t.retransmits.Load(),
		DupDropped:    t.dupDropped.Load(),
		Backpressured: t.backpressured.Load(),
	}
}

// QueueDepths reports the outbound backlog per peer: frames accepted by
// Send that the peer's writer has not yet shipped. The map is
// freshly allocated (scrape-time cost, not hot-path).
func (t *Transport) QueueDepths() map[string]int {
	t.mu.Lock()
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	out := make(map[string]int, len(peers))
	for _, p := range peers {
		p.mu.Lock()
		out[p.name] = len(p.pending)
		p.mu.Unlock()
	}
	return out
}

// Close shuts the transport down: the listener stops, writer goroutines
// exit (undelivered frames are discarded — Flush first if they matter),
// and open connections close. Idempotent; also triggered by
// Config.Context cancellation.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	t.cancel()
	err := t.ln.Close()
	for _, p := range t.peers {
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return err
}

// track registers a live connection for Close; it reports false when the
// transport is already closing (the caller must close the conn itself).
func (t *Transport) track(c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[c] = struct{}{}
	return true
}

func (t *Transport) untrack(c net.Conn) {
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

// --- outbound path ---

// next blocks until the writer has work and returns it: due acks first
// (freshly synthesized from the coalesced cumulative state), then queued
// frames. A sequenced frame enters the unacked window here, as the writer
// takes it, because its ack can arrive before the write returns. next
// returns a nil frame when conn is gone while delivery on it is unproven
// — the window holds frames, or acked says acks went out on it — so the
// writer reconnects now; ok is false once the peer is closed.
func (p *peer) next(conn net.Conn, acked bool) (f *frame, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed {
		if (conn == nil || p.conn != conn) && (len(p.unacked) > 0 || acked) {
			return nil, true
		}
		if len(p.ackDue) > 0 {
			names := make([]string, 0, len(p.ackDue))
			for name := range p.ackDue {
				names = append(names, name)
			}
			sort.Strings(names)
			src := names[0]
			cum := p.ackDue[src]
			delete(p.ackDue, src)
			return &frame{src: src, dst: p.name, seq: cum, ack: true}, true
		}
		if len(p.pending) > 0 {
			f := p.pending[0]
			p.pending = p.pending[1:]
			if f.seq > 0 {
				p.unacked = append(p.unacked, f)
			} else {
				p.writing = 1
			}
			return &f, true
		}
		p.cond.Wait()
	}
	return nil, false
}

// replay runs after a reliable dial. The lost connection may have
// swallowed the window and the acks written on it, so the window moves
// back to the front of the queue in send order (all of it predates
// anything queued), and the due acks are dropped: the writer re-queues
// ackState next, merged with any ack a reader queues meanwhile. held is
// the frame the writer kept across the dial: a sequenced one is the
// window's last frame, never fully written, so it is not counted as a
// retransmit; a held ack is superseded.
func (p *peer) replay(t *Transport, held *frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.unacked)
	if held != nil && !held.ack && n > 0 {
		n--
	}
	t.retransmits.Add(int64(n))
	p.pending = append(p.unacked, p.pending...)
	p.unacked = nil
	p.ackDue = nil
}

// writerLoop ships one peer's frames over a lazily dialed, reconnecting
// connection. A failed write keeps the frame, drops the connection, and
// retries with exponential backoff; in reliable mode every reconnect
// replays the unacked window in order, so the delivery guarantee is
// exactly-once into the receiving inbox (duplicates are suppressed by
// the receive window). Without Reliable the guarantee is TCP's, no more:
// frames the kernel accepted that the peer never read (peer crash) are
// lost, and only soft-state refresh re-supplies them.
func (t *Transport) writerLoop(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	var bw *bufio.Writer
	var cur *frame
	acked := false     // acks went out on conn, or on a lost one not yet replaced
	connected := false // a successful dial after the first is a reconnect
	backoff := retryMin
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		if cur == nil {
			f, ok := p.next(conn, acked)
			if !ok {
				return
			}
			cur = f
		}
		if conn != nil && p.lost(conn) {
			t.untrack(conn)
			conn.Close()
			conn = nil
		}
		if conn == nil {
			c, err := t.dial(p)
			if err != nil {
				if t.ctx.Err() != nil {
					return
				}
				t.cfg.Logf("nettcp: dial %s: %v; retrying in %v", p.name, err, backoff)
				if !t.sleep(backoff) {
					return
				}
				backoff = min(backoff*2, retryMax)
				continue
			}
			conn, bw, acked = c, bufio.NewWriter(c), false
			backoff = retryMin
			if connected {
				t.reconnects.Add(1)
			}
			connected = true
			if t.cfg.Reliable {
				p.replay(t, cur)
				cur = nil
				for dst, cum := range t.ackState(p.name) {
					t.queueAck(dst, p.name, cum) // the max rule keeps newer acks
				}
			}
		}
		if cur == nil {
			continue
		}
		err := writeFrame(bw, *cur)
		if err == nil {
			err = bw.Flush()
		}
		if err == nil {
			if cur.ack {
				acked = true
				t.acks.Add(1)
				t.ackBytes.Add(int64(frameWireSize(cur.src, cur.dst, nil, cur.seq)))
			} else if cur.seq == 0 {
				p.mu.Lock()
				p.writing = 0
				p.mu.Unlock()
			}
			cur = nil
			continue
		}
		if t.ctx.Err() != nil {
			return
		}
		t.cfg.Logf("nettcp: write to %s: %v; reconnecting", p.name, err)
		t.requeues.Add(1) // cur survives the dropped conn; retried above
		t.untrack(conn)
		conn.Close()
		conn = nil
		if !t.sleep(backoff) {
			return
		}
		backoff = min(backoff*2, retryMax)
	}
}

// lost reports whether the peer has ended conn (watch saw it close).
func (p *peer) lost(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn != conn
}

// dial opens, tracks, and primes (preamble + hello) a connection to p,
// and starts its watch.
func (t *Transport) dial(p *peer) (net.Conn, error) {
	p.mu.Lock()
	addr := p.addr
	p.mu.Unlock()
	d := net.Dialer{Timeout: defaultDialTimeout}
	conn, err := d.DialContext(t.ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if !t.track(conn) {
		conn.Close()
		return nil, errors.New("transport closed")
	}
	// The hello names the sending *process* — its first registered node,
	// or "?" before any — and each frame names its own sending node, so
	// one process can host several. The incarnation lets receivers spot
	// a restart of the same process.
	t.mu.Lock()
	name := t.name
	t.mu.Unlock()
	if name == "" {
		name = "?"
	}
	hello := binary.AppendUvarint(append([]byte{}, magic[:]...), uint64(len(name)))
	hello = append(hello, name...)
	hello = binary.AppendUvarint(hello, t.inc)
	if _, err := conn.Write(hello); err != nil {
		t.untrack(conn)
		conn.Close()
		return nil, err
	}
	p.mu.Lock()
	p.conn = conn
	p.mu.Unlock()
	t.wg.Add(1)
	go t.watch(p, conn)
	return conn, nil
}

// watch wakes p's writer when the peer ends conn. The peer never sends on
// an outbound connection, so the read returns only at EOF, at a reset, or
// when a TCP keepalive (on by default in Go's dialer) fails.
func (t *Transport) watch(p *peer, conn net.Conn) {
	defer t.wg.Done()
	io.Copy(io.Discard, conn)
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// ackState is the cumulative ack of every link from node into this
// process, taken from the highest sender incarnation that still has a
// live inbound connection: acks carry no incarnation, and a dead one's
// count could clear a restarted sender's fresh sequence numbers.
func (t *Transport) ackState(node string) map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	best := make(map[string]recvKey)
	for k := range t.recvSeq {
		if k.src == node && t.live[k.inc] > 0 && k.inc >= best[k.dst].inc {
			best[k.dst] = k
		}
	}
	acks := make(map[string]uint64, len(best))
	for dst, k := range best {
		acks[dst] = t.recvSeq[k]
	}
	return acks
}

// sleep waits d or until shutdown, reporting whether to continue.
func (t *Transport) sleep(d time.Duration) bool {
	select {
	case <-t.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// frameWireSize is the framed size of one datagram: length prefix,
// flags byte, source, destination, optional sequence number, payload.
func frameWireSize(src, dst string, payload []byte, seq uint64) int {
	body := 1 + uvarintLen(uint64(len(src))) + len(src) +
		uvarintLen(uint64(len(dst))) + len(dst) + len(payload)
	if seq > 0 {
		body += uvarintLen(seq)
	}
	return uvarintLen(uint64(body)) + body
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// writeFrame writes one length-prefixed frame. Source and destination
// node names ride in the frame header (not per connection) so one
// process can host several nodes and the receiver learns From without
// decoding the payload.
func writeFrame(w *bufio.Writer, f frame) error {
	var hdr [binary.MaxVarintLen64]byte
	body := 1 + uvarintLen(uint64(len(f.src))) + len(f.src) +
		uvarintLen(uint64(len(f.dst))) + len(f.dst) + len(f.payload)
	if f.seq > 0 {
		body += uvarintLen(f.seq)
	}
	n := binary.PutUvarint(hdr[:], uint64(body))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	flags := byte(0)
	if f.seq > 0 {
		flags |= flagSequenced
	}
	if f.ack {
		flags |= flagAck
	}
	if err := w.WriteByte(flags); err != nil {
		return err
	}
	for _, s := range []string{f.src, f.dst} {
		n = binary.PutUvarint(hdr[:], uint64(len(s)))
		if _, err := w.Write(hdr[:n]); err != nil {
			return err
		}
		if _, err := w.WriteString(s); err != nil {
			return err
		}
	}
	if f.seq > 0 {
		n = binary.PutUvarint(hdr[:], f.seq)
		if _, err := w.Write(hdr[:n]); err != nil {
			return err
		}
	}
	_, err := w.Write(f.payload)
	return err
}

// --- inbound path ---

// acceptLoop admits peer connections until the listener closes.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		if !t.track(conn) {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop consumes one inbound connection: preamble, hello (with
// restart detection), then frames — acks are absorbed into the sender
// window, duplicates dropped, fresh data delivered to local inboxes and
// acknowledged. Protocol errors and sequence gaps poison only this
// connection; the peer's dialer re-opens it.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	defer conn.Close()
	br := bufio.NewReader(conn)
	var pre [4]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != magic {
		t.cfg.Logf("nettcp: bad preamble from %s", conn.RemoteAddr())
		return
	}
	hello, err := readLengthPrefixed(br, DefaultMaxFrame)
	if err != nil {
		t.cfg.Logf("nettcp: bad hello from %s: %v", conn.RemoteAddr(), err)
		return
	}
	from := string(hello)
	inc, err := binary.ReadUvarint(br)
	if err != nil {
		t.cfg.Logf("nettcp: bad hello incarnation from %s: %v", from, err)
		return
	}
	t.observeIncarnation(from, inc)
	defer func() {
		t.mu.Lock()
		if t.live[inc]--; t.live[inc] == 0 {
			delete(t.live, inc)
		}
		t.mu.Unlock()
	}()
	for {
		body, err := readLengthPrefixed(br, DefaultMaxFrame)
		if err != nil {
			if err != io.EOF && t.ctx.Err() == nil {
				t.cfg.Logf("nettcp: read from %s: %v", from, err)
			}
			return
		}
		flags, src, dst, seq, payload, err := parseFrame(body)
		if err != nil {
			t.cfg.Logf("nettcp: corrupt frame from %s: %v", from, err)
			return
		}
		if flags&flagAck != 0 {
			t.acks.Add(1)
			t.ackBytes.Add(int64(frameWireSize(src, dst, nil, seq)))
			t.handleAck(src, dst, seq)
			continue
		}
		// Admit and queue under one lock, so that a replaced connection's
		// reader draining beside its successor cannot reorder a link.
		t.mu.Lock()
		cum, fresh, err := t.admit(inc, src, dst, seq)
		box := t.local[dst]
		if fresh && box != nil {
			t.enqueue(box, src, dst, payload)
		} else if fresh {
			// Not registered (yet): park the frame for AddNode. A name
			// this process will never host leaks its backlog here; the
			// log line is the operator's clue to a peer-map typo.
			t.charge(src, dst, payload, seq)
			t.parked.Add(1)
			t.orphans[dst] = append(t.orphans[dst], netsim.Message{From: src, To: dst, Payload: payload})
		}
		t.mu.Unlock()
		if err != nil {
			t.cfg.Logf("nettcp: %v; closing the connection from %s", err, from)
			return
		}
		if seq > 0 {
			t.queueAck(dst, src, cum)
		}
		switch {
		case !fresh:
			t.dupDropped.Add(1)
		case box == nil:
			t.cfg.Logf("nettcp: frame from %s parked for unregistered node %q", src, dst)
		default:
			t.wake()
		}
	}
}

// observeIncarnation records a peer process's hello incarnation, counts
// the connection as live for it, and fires the restart handler when a
// name first appears (join) or a known name reappears newer (restart).
// Re-hellos of the live incarnation — plain reconnects — fire nothing.
func (t *Transport) observeIncarnation(process string, inc uint64) {
	t.mu.Lock()
	t.live[inc]++
	prev, seen := t.seenInc[process]
	if !seen || inc > prev {
		t.seenInc[process] = inc
	}
	t.mu.Unlock()
	if seen && inc <= prev {
		return
	}
	if seen {
		t.cfg.Logf("nettcp: peer process %s restarted (incarnation %d -> %d)", process, prev, inc)
	} else {
		t.cfg.Logf("nettcp: peer process %s joined (incarnation %d)", process, inc)
	}
	if fn := t.restart.Load(); fn != nil {
		go (*fn)(process)
	}
}

// admit runs the receive-side duplicate window for one sequenced frame:
// it reports the cumulative sequence to acknowledge and whether the
// frame is fresh (deliverable); an unsequenced frame always is. The
// caller holds t.mu. A gap on a link with no window state
// means this receiver lost the state (it restarted): the stream
// resynchronizes at the frame in hand, and the content of the missed
// prefix comes back through soft-state re-announcement, not the
// transport. A gap on a link *with* state (a replaced connection's
// reader still draining beside its successor) is an error: the caller
// closes the connection, and the sender replays its window from the
// acknowledged point on the next one.
func (t *Transport) admit(inc uint64, src, dst string, seq uint64) (cum uint64, fresh bool, err error) {
	if seq == 0 {
		return 0, true, nil
	}
	k := recvKey{inc: inc, src: src, dst: dst}
	last := t.recvSeq[k]
	switch {
	case seq <= last:
		return last, false, nil
	case seq > last+1 && last != 0:
		return last, false, fmt.Errorf("link %s->%s seq %d jumps past %d", src, dst, seq, last)
	}
	t.recvSeq[k] = seq
	return seq, true, nil
}

// handleAck clears the acknowledged prefix of the (ackDst -> ackSrc)
// link from the sender window and releases any blocked senders.
func (t *Transport) handleAck(ackSrc, ackDst string, cum uint64) {
	t.mu.Lock()
	p := t.peers[ackSrc]
	t.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	kept := p.unacked[:0]
	removed := false
	for _, f := range p.unacked {
		if f.src == ackDst && f.seq <= cum {
			removed = true
			continue
		}
		kept = append(kept, f)
	}
	p.unacked = kept
	if removed {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// queueAck coalesces an outbound cumulative ack for the (sender ->
// localDst) link onto the sender's peer writer. Duplicate arrivals
// re-ack so a sender that missed the first ack still clears its window.
func (t *Transport) queueAck(localDst, sender string, cum uint64) {
	t.mu.Lock()
	p := t.peers[sender]
	t.mu.Unlock()
	if p == nil {
		t.cfg.Logf("nettcp: no return path to %s to ack frames for %s", sender, localDst)
		return
	}
	p.mu.Lock()
	if p.ackDue == nil {
		p.ackDue = make(map[string]uint64)
	}
	if cum > p.ackDue[localDst] {
		p.ackDue[localDst] = cum
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// readChunk is how far readLengthPrefixed trusts an announced length: a
// block grows by at most this much beyond the bytes that actually came.
const readChunk = 64 << 10

// readLengthPrefixed reads one uvarint-length-prefixed block. The length
// is the peer's word — on the hello, before anything is authenticated —
// so the buffer grows with the bytes read, a chunk at a time, instead of
// being sized by it: a peer announcing the cap and sending nothing costs
// one chunk, not the cap.
func readLengthPrefixed(br *bufio.Reader, max int) ([]byte, error) {
	l, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if l > uint64(max) {
		return nil, fmt.Errorf("block of %d bytes exceeds cap %d", l, max)
	}
	buf := make([]byte, 0, min(int(l), readChunk))
	for len(buf) < int(l) {
		next := len(buf) + min(int(l)-len(buf), readChunk)
		buf = slices.Grow(buf, next-len(buf))
		if _, err := io.ReadFull(br, buf[len(buf):next]); err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF // the block broke off between chunks
			}
			return nil, err
		}
		buf = buf[:next]
	}
	return buf, nil
}

// parseFrame splits a frame body into flags, source, destination,
// sequence number (0 when absent), and payload.
func parseFrame(body []byte) (flags byte, src, dst string, seq uint64, payload []byte, err error) {
	if len(body) < 1 {
		return 0, "", "", 0, nil, errors.New("empty frame")
	}
	flags = body[0]
	rest := body[1:]
	names := [2]string{}
	for i := range names {
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return 0, "", "", 0, nil, errors.New("bad name length")
		}
		names[i] = string(rest[n : n+int(l)])
		rest = rest[n+int(l):]
	}
	if flags&flagSequenced != 0 {
		var n int
		seq, n = binary.Uvarint(rest)
		if n <= 0 || seq == 0 {
			return 0, "", "", 0, nil, errors.New("bad sequence number")
		}
		rest = rest[n:]
	}
	return flags, names[0], names[1], seq, rest, nil
}
