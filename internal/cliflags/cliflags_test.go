package cliflags

import (
	"context"
	"flag"
	"net"
	"strings"
	"testing"
	"time"

	"provnet"
)

// TestRegisterFlagSurface pins the shared flag set against the three
// flags deleted with the second termination mode and the second spelling
// of the session transport: bringing one back should be a loud decision.
func TestRegisterFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
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
// transport, and Apply carries it onto the Config.
func TestParseAuthSession(t *testing.T) {
	if s, err := ParseAuth("session"); err != nil || s != provnet.AuthSession {
		t.Fatalf(`ParseAuth("session") = %v, %v; want AuthSession`, s, err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-auth", "session", "-rekey", "3"}); err != nil {
		t.Fatal(err)
	}
	var cfg provnet.Config
	if err := f.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Auth != provnet.AuthSession || cfg.RekeyRounds != 3 {
		t.Errorf("Apply set Auth %v, RekeyRounds %d; want session, 3", cfg.Auth, cfg.RekeyRounds)
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

	f := &Flags{Auth: "none", Listen: "127.0.0.1:0", Self: "n0", Peers: "n1=" + dead, Metrics: true}
	cfg := provnet.Config{Source: provnet.BestPath, Graph: provnet.LineGraph(2)}
	if err := f.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := f.SetupTransport(ctx, &cfg); err != nil {
		t.Fatal(err)
	}
	n, err := provnet.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	rep, err := f.RunDistributed(ctx, n)
	if err == nil || !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), termStallTimeout.String()) {
		t.Fatalf("RunDistributed = %+v, %v; want the stall error naming the timeout", rep, err)
	}
	if got := n.Metrics().Counter("provnet_scheduler_credit_terminations_total", "").Value(); got != 0 {
		t.Errorf("credit_terminations_total = %d after a stalled run, want no declaration", got)
	}
}
