package core

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"provnet/internal/auth"
	"provnet/internal/faultnet"
	"provnet/internal/netsim"
	"provnet/internal/nettcp"
	"provnet/internal/obs"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

var (
	_ Transport = (*netsim.Network)(nil)
	_ Transport = (*nettcp.Transport)(nil)
	_ Transport = (*faultnet.Net)(nil)
)

// TestTransportContract runs one script against every transport: the
// in-memory fabric, a reliable nettcp loopback pair, and faultnet with
// no faults over each. tx hosts sender "a", rx hosts receiver "b" (one
// object for the fabric).
func TestTransportContract(t *testing.T) {
	fabric := func(t *testing.T) (tx, rx Transport) {
		n := netsim.New()
		n.AddNode("a")
		n.AddNode("b")
		return n, n
	}
	tcpPair := func(t *testing.T) (tx, rx Transport) {
		ta, err := nettcp.New(nettcp.Config{Listen: "127.0.0.1:0", Reliable: true})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := nettcp.New(nettcp.Config{Listen: "127.0.0.1:0", Reliable: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ta.Close(); tb.Close() })
		ta.AddNode("a")
		tb.AddNode("b")
		ta.AddPeer("b", tb.Addr())
		tb.AddPeer("a", ta.Addr())
		return ta, tb
	}
	faulty := func(inner func(*testing.T) (Transport, Transport)) func(*testing.T) (Transport, Transport) {
		return func(t *testing.T) (Transport, Transport) {
			tx, rx := inner(t)
			ftx := faultnet.New(tx, faultnet.Config{Seed: 1})
			if tx == rx {
				return ftx, ftx
			}
			return ftx, faultnet.New(rx, faultnet.Config{Seed: 1})
		}
	}
	for _, c := range []struct {
		name  string
		setup func(*testing.T) (Transport, Transport)
	}{
		{"netsim", fabric},
		{"nettcp", tcpPair},
		{"faultnet-netsim", faulty(fabric)},
		{"faultnet-nettcp", faulty(tcpPair)},
	} {
		t.Run(c.name, func(t *testing.T) {
			tx, rx := c.setup(t)
			const sent = 5
			for i := range sent {
				if err := tx.Send("a", "b", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Send("a", "ghost", []byte{0}); err == nil {
				t.Error("send to an unknown node succeeded")
			}
			if got := tx.Stats().DroppedMsg; got != 1 {
				t.Errorf("DroppedMsg = %d, want 1", got)
			}
			ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
			defer cancel()
			if err := tx.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if got := tx.InFlight(); got != 0 {
				t.Errorf("InFlight after Flush = %d", got)
			}
			for rx.PendingCount() < sent && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			rx.AddNode("b") // registering again keeps the queue
			if got := rx.PendingCount(); got != sent {
				t.Fatalf("PendingCount = %d, want %d", got, sent)
			}
			msgs := rx.Drain("b")
			if len(msgs) != sent {
				t.Fatalf("drained %d datagrams, want %d", len(msgs), sent)
			}
			for i, m := range msgs {
				if m.From != "a" || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
					t.Errorf("datagram %d = %+v, want #%d from a", i, m, i)
				}
			}
			if got := rx.PendingCount(); got != 0 {
				t.Errorf("PendingCount after Drain = %d", got)
			}
			for _, tr := range []Transport{tx, rx, tx, rx} {
				if err := tr.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}
		})
	}
}

// TestFaultnetKeepsPeerQueues pins that faultnet passes the per-peer
// outbound backlog through: wrapped around a nettcp transport whose peer
// is down, the queue still shows in QueueDepths, the metrics registry and
// the flight records.
func TestFaultnetKeepsPeerQueues(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	down := ln.Addr().String()
	ln.Close()
	tcp, err := nettcp.New(nettcp.Config{Listen: "127.0.0.1:0", Peers: map[string]string{"n1": down}, Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	fn := faultnet.New(tcp, faultnet.Config{Seed: 1})
	defer fn.Close()
	m := obs.New()
	n, err := NewNetwork(Config{Source: BestPath, Graph: topo.Line(2), Transport: fn, LocalNodes: []string{"n0"}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := fn.QueueDepths()["n1"]; !ok {
		t.Errorf("QueueDepths = %v, want the down peer n1", fn.QueueDepths())
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "provnet_transport_queue_depth") {
		t.Error("provnet_transport_queue_depth not registered")
	}
	found := false
	for _, rec := range m.Flight.Snapshot() {
		if _, ok := rec.PeerQueues["n1"]; ok {
			found = true
		}
	}
	if !found {
		t.Error("no flight record carries peer_queues for n1")
	}
}

// TestTCPMatchesNetsim pins the multi-process story in-process: three
// core.Networks, each hosting one node of the paper topology over its
// own nettcp transport on loopback TCP, converge to the same tables and
// condensed provenance annotations as the single-process netsim run —
// under both per-round RSA and the session handshake transport.
// (cmd/provnet's TestMultiprocessMatchesSingleProcess repeats this with
// real OS processes.)
func TestTCPMatchesNetsim(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP convergence test")
	}
	schemes := []struct {
		name string
		mut  func(*Config)
	}{
		{"rsa", func(c *Config) {}},
		{"session", func(c *Config) { c.Auth = auth.SchemeSession }},
	}
	for _, s := range schemes {
		t.Run(s.name, func(t *testing.T) {
			base := Config{
				Source:  BestPath,
				Graph:   paperGraph(),
				Auth:    auth.SchemeRSA,
				Prov:    provenance.ModeCondensed,
				KeyBits: 512,
			}
			s.mut(&base)
			ref, _ := mustRun(t, base)
			names := ref.Nodes()

			// One transport per "process", loopback listeners, full mesh.
			trs := make([]*nettcp.Transport, len(names))
			for i := range names {
				tr, err := nettcp.New(nettcp.Config{Listen: "127.0.0.1:0", Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				trs[i] = tr
			}
			for i := range names {
				for j := range names {
					if i != j {
						trs[i].AddPeer(names[j], trs[j].Addr())
					}
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			nets := make([]*Network, len(names))
			for i, name := range names {
				cfg := base
				cfg.Transport = trs[i]
				cfg.LocalNodes = []string{name}
				n, err := NewNetwork(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer n.Close()
				nets[i] = n
				if err := n.Driver().Start(ctx); err != nil {
					t.Fatal(err)
				}
			}

			// Convergence: total message count stable across a settle
			// window with empty inboxes everywhere, then every driver
			// quiescent. Only stats (atomics) are read before that point,
			// so the table reads below cannot race the pumps.
			totals := func() (msgs int64, pending int) {
				for _, tr := range trs {
					msgs += tr.Stats().Messages
					pending += tr.PendingCount()
				}
				return
			}
			deadline := time.Now().Add(45 * time.Second)
			var last int64 = -1
			stable := 0
			for stable < 3 {
				if time.Now().After(deadline) {
					t.Fatal("no convergence within deadline")
				}
				time.Sleep(100 * time.Millisecond)
				msgs, pending := totals()
				if pending == 0 && msgs == last {
					stable++
				} else {
					stable = 0
				}
				last = msgs
			}
			for _, n := range nets {
				if _, err := n.Driver().AwaitQuiescence(ctx); err != nil {
					t.Fatal(err)
				}
			}

			for i, name := range names {
				one := shape{node: name, expr: true}
				want, got := render(ref, one), render(nets[i], one)
				if want != got {
					t.Errorf("node %s tables differ\n--- netsim ---\n%s--- tcp ---\n%s", name, want, got)
				}
			}
		})
	}
}
