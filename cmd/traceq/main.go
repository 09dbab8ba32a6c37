// Command traceq runs a program to fixpoint and then executes provenance
// traceback queries against it: full distributed reconstruction, random
// moonwalks, and offline (post-expiry) forensics.
//
//	traceq -program worm.ndl -topo line:4 -node victim -tuple 'infected(victim, slammer)'
//	traceq ... -advance 60 -offline       # forensic query after expiry
//	traceq ... -moonwalk -walks 5         # sampled backward walks
//	traceq ... -churn 1                   # cut a link first: stale provenance
//	traceq ... -format json               # machine-readable (queryapi schema v1)
//
// -format json emits the same versioned QueryResult JSON the HTTP API's
// /v1/traceback endpoint serves (internal/queryapi, docs/API.md), so
// scripts can consume either source interchangeably.
//
// The scheduler, transport-security, and churn knobs are shared with the
// other commands via internal/cliflags: -auth, -keybits, -sequential,
// -unbatched, -rekey, -churn, -churnseed.
// With -churn N the traceback runs against the re-converged network, so
// withdrawn tuples show up as stale provenance history.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"provnet"
	"provnet/internal/cliflags"
	"provnet/internal/core"
	"provnet/internal/queryapi"
)

func main() {
	programPath := flag.String("program", "", "path to the program (required)")
	topoSpec := flag.String("topo", "none", "topology spec (see cmd/provnet)")
	noCost := flag.Bool("nocost", false, "link facts without cost column")
	node := flag.String("node", "", "node to start the traceback at (required)")
	tupleText := flag.String("tuple", "", "tuple to trace, e.g. 'reachable(a, c)' (required)")
	advance := flag.Float64("advance", 0, "advance logical time by this many seconds before querying")
	offline := flag.Bool("offline", false, "consult offline provenance stores")
	moonwalk := flag.Bool("moonwalk", false, "random moonwalk instead of full reconstruction")
	walks := flag.Int("walks", 3, "number of moonwalks")
	seed := flag.Int64("seed", 1, "moonwalk rng seed")
	extraNodes := flag.String("extranodes", "", "comma-separated node names not mentioned in any fact placement")
	format := flag.String("format", "text", "output format: text or json (queryapi schema)")
	shared := cliflags.Register(nil)
	flag.Parse()
	if shared.TransportFlagsSet() {
		fatal(fmt.Errorf("-listen/-self/-peers (the multi-process TCP transport) are only supported by cmd/provnet"))
	}
	if shared.ServiceFlagsSet() {
		fatal(fmt.Errorf("-store/-http (the durable store log and query API) are only supported by cmd/provnet"))
	}

	if *programPath == "" || *node == "" || *tupleText == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *format != "text" && *format != "json" {
		fatal(fmt.Errorf("unknown -format %q (want text or json)", *format))
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		fatal(err)
	}
	target, err := core.ParseTuple(*tupleText)
	if err != nil {
		fatal(err)
	}

	off := -1.0
	cfg := provnet.Config{
		Source:     string(src),
		LinkNoCost: *noCost,
		Prov:       provnet.ProvDistributed,
		Offline:    &off,
	}
	if err := shared.Apply(&cfg); err != nil {
		fatal(err)
	}
	if cfg.Graph, err = cliflags.ParseTopo(*topoSpec); err != nil {
		fatal(err)
	}
	if *extraNodes != "" {
		for _, nm := range strings.Split(*extraNodes, ",") {
			cfg.ExtraNodes = append(cfg.ExtraNodes, strings.TrimSpace(nm))
		}
	}
	n, err := provnet.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		fatal(err)
	}
	if churn, err := shared.RunChurn(context.Background(), n, cfg.Graph); err != nil {
		fatal(err)
	} else if churn != nil {
		fmt.Println(churn)
	}
	if *advance > 0 {
		n.Advance(*advance)
		fmt.Printf("advanced logical time to %gs; soft state expired\n", n.Clock())
	}

	if *moonwalk {
		rng := rand.New(rand.NewSource(*seed))
		for i := 0; i < *walks; i++ {
			tree, stats, err := n.DerivationTree(*node, target, provnet.ProvQueryOpts{
				Moonwalk: true, Rng: rng, Offline: *offline,
			})
			if err != nil {
				fatal(err)
			}
			if *format == "json" {
				emitJSON(queryapi.TracebackResult(*node, target.String(), tree, stats))
				continue
			}
			fmt.Printf("\nmoonwalk %d (%d hops, %d entries):\n", i+1, stats.Messages, stats.Entries)
			fmt.Print(tree.Render(nil))
		}
		return
	}

	tree, stats, err := n.DerivationTree(*node, target, provnet.ProvQueryOpts{Offline: *offline})
	if err != nil {
		fatal(err)
	}
	if *format == "json" {
		emitJSON(queryapi.TracebackResult(*node, target.String(), tree, stats))
		return
	}
	fmt.Printf("derivation tree of %s at %s:\n", target, *node)
	fmt.Print(tree.Render(nil))
	fmt.Printf("\nquery cost: %d inter-node messages, ~%d bytes, %d nodes visited, %d entries\n",
		stats.Messages, stats.Bytes, stats.NodesVisited, stats.Entries)
	fmt.Println("base tuples:")
	for _, l := range tree.Leaves() {
		fmt.Printf("  %s\n", l)
	}
	// With -metrics, the exit-time exposition goes to stderr so it never
	// mixes with the tree/JSON output above.
	if err := cliflags.DumpMetrics(os.Stderr, n); err != nil {
		fatal(err)
	}
}

// emitJSON writes one QueryResult document to stdout (one per moonwalk
// when -moonwalk is set).
func emitJSON(res *queryapi.QueryResult) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceq:", err)
	os.Exit(1)
}
