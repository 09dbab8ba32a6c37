package main

import (
	"context"
	"flag"
	"net"
	"strings"
	"testing"
	"time"

	"provnet"
)

// TestRegisterFlagSurface pins the flag set against the three flags
// deleted with the second termination mode and the second spelling of
// the session transport: bringing one back should be a loud decision.
func TestRegisterFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	registerFlags(fs)
	for _, name := range []string{"term", "idle", "session"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s is registered; there is one termination mode and one spelling of session auth", name)
		}
	}
	for _, name := range []string{"auth", "rekey", "listen", "self", "peers", "fault"} {
		if fs.Lookup(name) == nil {
			t.Errorf("-%s is not registered", name)
		}
	}
}

// TestParseAuthSession: -auth session is the one way to the session
// transport, and apply carries it onto the Config.
func TestParseAuthSession(t *testing.T) {
	if s, err := parseAuth("session"); err != nil || s != provnet.AuthSession {
		t.Fatalf(`parseAuth("session") = %v, %v; want AuthSession`, s, err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse([]string{"-auth", "session", "-rekey", "3"}); err != nil {
		t.Fatal(err)
	}
	var cfg provnet.Config
	if err := f.apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Auth != provnet.AuthSession || cfg.RekeyRounds != 3 {
		t.Errorf("apply set Auth %v, RekeyRounds %d; want session, 3", cfg.Auth, cfg.RekeyRounds)
	}
}

// TestRunDistributedReportsStall: a peer that never comes up holds the
// token forever, so the detector cannot declare; the run must fail with
// the stall error instead of declaring a fixpoint on silence.
func TestRunDistributedReportsStall(t *testing.T) {
	defer func(d time.Duration) { termStallTimeout = d }(termStallTimeout)
	termStallTimeout = 300 * time.Millisecond

	// A dead address: reserve a port and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	f := &flags{Auth: "none", Listen: "127.0.0.1:0", Self: "n0", Peers: "n1=" + dead, Metrics: true}
	cfg := provnet.Config{Source: provnet.BestPath, Graph: provnet.LineGraph(2)}
	if err := f.apply(&cfg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.setupTransport(ctx, &cfg); err != nil {
		t.Fatal(err)
	}
	n, err := provnet.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	rep, err := f.runDistributed(ctx, n)
	if err == nil || !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), termStallTimeout.String()) {
		t.Fatalf("runDistributed = %+v, %v; want the stall error naming the timeout", rep, err)
	}
	if got := n.Metrics().Counter("provnet_scheduler_credit_terminations_total", "").Value(); got != 0 {
		t.Errorf("credit_terminations_total = %d after a stalled run, want no declaration", got)
	}
}

// TestParseTopo: every kind takes its numbers in order with defaults for
// the ones left off, and a spec with a field that is not a number, a
// field too many or an unknown kind is refused with an error naming the
// spec, never run as some default topology.
func TestParseTopo(t *testing.T) {
	good := []struct {
		spec         string
		nodes, links int
	}{
		{"none", 0, 0},
		{"", 0, 0},
		{"ring", 4, 4},
		{"ring:5", 5, 5},
		{"line:3", 3, 4},
		{"star:4", 4, 6},
		{"random:6", 6, -1},
		{"random:6:2:5:9", 6, -1},
	}
	for _, c := range good {
		g, err := parseTopo(c.spec)
		if err != nil {
			t.Errorf("parseTopo(%q): %v", c.spec, err)
			continue
		}
		nodes, links := 0, 0
		if g != nil {
			nodes, links = len(g.Nodes), len(g.Links)
		}
		if nodes != c.nodes || (c.links >= 0 && links != c.links) {
			t.Errorf("parseTopo(%q) = %d nodes, %d links; want %d, %d", c.spec, nodes, links, c.nodes, c.links)
		}
	}
	for _, spec := range []string{
		"ring:x", "ring:", "line:3:4", "star:2.5", "random:6:x", "random:6:2:5:9:1", "mesh:4", "ring5",
	} {
		if g, err := parseTopo(spec); err == nil || !strings.Contains(err.Error(), spec) {
			t.Errorf("parseTopo(%q) = %v, %v; want an error naming the spec", spec, g, err)
		}
	}
}
