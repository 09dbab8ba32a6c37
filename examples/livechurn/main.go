// Livechurn demonstrates the lifecycle API on the paper's §6 Best-Path
// workload: start a network as a long-running driver, subscribe to one
// node's best-path table, and watch a link cut withdraw routes and
// re-converge incrementally — no restart, only the affected region pays.
package main

import (
	"context"
	"fmt"
	"log"

	"provnet"
)

func main() {
	fmt.Println("== Live-network lifecycle: Best-Path under link churn ==")

	g := provnet.RandomGraph(provnet.TopoOptions{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 9})
	cfg := provnet.VariantConfig(provnet.VariantSeNDlog, provnet.BestPath)
	cfg.Graph = g
	cfg.Auth = provnet.AuthSession // session transport: handshake once per link, MAC per frame
	n, err := provnet.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := n.Driver()

	// Stream n0's best-path changes while the network runs.
	sub, err := d.Subscribe("n0", "bestPath")
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	if err := d.Start(ctx); err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged in %d rounds: %d best paths at n0, %d bytes on the wire\n",
		rep.Rounds, len(n.Tuples("n0", "bestPath")), n.Transport().Stats().Bytes)
	drainUpdates(sub, "  [initial convergence]")

	// Cut a link an installed best path routes over and re-converge.
	cut := loadedLink(n, g)
	before := n.Transport().Stats()
	fmt.Printf("\ncutting link %s->%s ...\n", cut.From, cut.To)
	if err := d.CutLink(cut.From, cut.To); err != nil {
		log.Fatal(err)
	}
	rep, err = d.AwaitQuiescence(ctx)
	if err != nil {
		log.Fatal(err)
	}
	after := n.Transport().Stats()
	fmt.Printf("re-converged in %d rounds, %d bytes, %d tuples withdrawn network-wide\n",
		rep.Rounds, after.Bytes-before.Bytes, rep.Retracted)
	drainUpdates(sub, "  [after cut]")

	// Runtime injection: a brand-new cheap link improves routes live.
	fmt.Printf("\ninstalling new link n5->n0 at cost 1 ...\n")
	if err := d.SetLink("n5", "n0", 1); err != nil {
		log.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pending messages for n0 after quiescence: %d (fabric total %d)\n",
		n.Transport().PendingFor("n0"), n.Transport().PendingCount())
	drainUpdates(sub, "  [after new link]")
	if dropped := sub.Dropped(); dropped > 0 {
		fmt.Printf("(%d updates dropped by the slow subscriber)\n", dropped)
	}
}

// loadedLink returns a link some installed best path routes over, so
// cutting it visibly withdraws routes.
func loadedLink(n *provnet.Network, g *provnet.Graph) provnet.GraphLink {
	for _, l := range g.Links {
		for _, name := range n.Nodes() {
			for _, bp := range n.Tuples(name, "bestPath") {
				p := bp.Args[2]
				for i := 0; i+1 < len(p.List); i++ {
					if p.List[i].Str == l.From && p.List[i+1].Str == l.To {
						return l
					}
				}
			}
		}
	}
	return g.Links[0]
}

// drainUpdates prints whatever the subscription has buffered.
func drainUpdates(sub *provnet.Subscription, label string) {
	adds, cuts := 0, 0
	for len(sub.Updates()) > 0 {
		u := <-sub.Updates()
		if u.Added {
			adds++
		} else {
			cuts++
		}
	}
	fmt.Printf("%s subscription saw %d additions, %d withdrawals\n", label, adds, cuts)
}
