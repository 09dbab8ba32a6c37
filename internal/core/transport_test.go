package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"provnet/internal/auth"
	"provnet/internal/nettcp"
	"provnet/internal/provenance"
)

// snapshotNodeSorted renders one node's tables (with condensed
// annotations when available) as sorted lines, so runs whose arrival
// order differs can still be compared for set equality.
func snapshotNodeSorted(n *Network, name string) string {
	node := n.Node(name)
	if node == nil {
		return ""
	}
	var lines []string
	for _, pred := range node.Engine.Predicates() {
		for _, tu := range node.Engine.Tuples(pred) {
			line := fmt.Sprintf("%s: %s", name, tu)
			if n.cfg.Prov == provenance.ModeCondensed {
				line += "\t" + n.CondensedExpr(name, tu)
			}
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
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
				want := snapshotNodeSorted(ref, name)
				got := snapshotNodeSorted(nets[i], name)
				if want != got {
					t.Errorf("node %s tables differ\n--- netsim ---\n%s--- tcp ---\n%s", name, want, got)
				}
			}
		})
	}
}
