// Forensics demonstrates the paper's forensics use case (§3, §4.2): a
// worm-style attack spreads through the network as soft-state tuples;
// after the attack traffic has long expired, the victim reconstructs the
// infection path from OFFLINE distributed provenance.
package main

import (
	"fmt"
	"log"

	"provnet"
)

// The worm propagates along connections; infections are soft state with a
// 30-second lifetime.
const wormProgram = `
materialize(conn, infinity, infinity, keys(1,2)).
materialize(infected, 30, infinity, keys(1,2)).

w1 infected(@D,W) :- infected(@S,W), conn(@S,D).
`

func main() {
	// patient0 -> r1 -> r2 -> victim, with a clean side branch.
	g := provnet.CustomGraph([]provnet.GraphLink{
		{From: "patient0", To: "r1", Cost: 1},
		{From: "r1", To: "r2", Cost: 1},
		{From: "r2", To: "victim", Cost: 1},
		{From: "clean", To: "r2", Cost: 1},
	})
	offline := -1.0 // keep forensic provenance forever
	n, err := provnet.NewNetwork(provnet.Config{
		Source:  wormProgram,
		Prov:    provnet.ProvDistributed,
		Offline: &offline,
		Graph:   g,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Topology facts use pred "link"; the program wants "conn": insert
	// conn facts explicitly.
	for _, l := range g.Links {
		if err := n.InsertFact(l.From, provnet.NewTuple("conn", provnet.Str(l.From), provnet.Str(l.To))); err != nil {
			log.Fatal(err)
		}
	}
	// Patient zero is infected with worm "slammer".
	if err := n.InsertFact("patient0", provnet.NewTuple("infected", provnet.Str("patient0"), provnet.Str("slammer"))); err != nil {
		log.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Forensic traceback over offline provenance ==")
	fmt.Println("\nphase 1 — the worm spreads (soft state, TTL 30s):")
	for _, node := range n.Nodes() {
		for _, tu := range n.Tuples(node, "infected") {
			fmt.Printf("  %s: %s\n", node, tu)
		}
	}

	victimTuple := provnet.NewTuple("infected", provnet.Str("victim"), provnet.Str("slammer"))

	fmt.Println("\nphase 2 — 60 seconds pass; all infection state expires:")
	n.Advance(60)
	live := 0
	for _, node := range n.Nodes() {
		live += len(n.Tuples(node, "infected"))
	}
	fmt.Printf("  live infected tuples anywhere: %d\n", live)

	// Online provenance is gone with the tuples; the offline store
	// still answers.
	fmt.Println("\nphase 3 — offline distributed traceback from the victim:")
	tree, stats, err := n.DerivationTree("victim", victimTuple,
		provnet.ProvQueryOpts{Offline: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tree.Render(nil))
	fmt.Printf("query cost: %d inter-node messages, %d nodes visited, %d entries read\n",
		stats.Messages, stats.NodesVisited, stats.Entries)
	fmt.Println("\nroot causes (base tuples):")
	for _, l := range tree.Leaves() {
		fmt.Printf("  %s\n", l)
	}
	fmt.Println("\n→ patient0 is identified as the origin, from state that expired long ago.")
}
