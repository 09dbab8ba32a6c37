// Command bestpath regenerates the paper's evaluation (§6, Figures 3 and
// 4): it runs the all-pairs Best-Path recursive query on random graphs
// with average out-degree 3, sweeping the node count, under the three
// system variants —
//
//	NDlog        no authentication, no provenance
//	SeNDlog      per-tuple RSA signatures
//	SeNDlogProv  RSA signatures + condensed BDD provenance
//
// — and reports query completion time (Figure 3) and total bandwidth
// (Figure 4), averaged over the requested number of runs, together with
// the overhead percentages the paper quotes in the text.
//
// Absolute numbers differ from the paper's (their substrate was 100 C++
// P2 processes in 2008; ours is an in-process simulator), but the shape —
// ordering of the three variants and overheads shrinking as N grows — is
// the reproduction target. See docs/BENCHMARKS.md.
//
// Scheduler/transport knobs come from internal/cliflags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"provnet"
	"provnet/internal/cliflags"
)

var variants = []provnet.Variant{provnet.VariantNDlog, provnet.VariantSeNDlog, provnet.VariantSeNDlogProv}

type cell struct {
	seconds float64
	mb      float64
}

func main() {
	ns := flag.String("n", "10,20,40,60,80,100", "comma-separated node counts")
	runs := flag.Int("runs", 3, "runs per point (paper: 10)")
	maxCost := flag.Int64("maxcost", 10, "max link cost")
	csvPath := flag.String("csv", "", "also write results as CSV")
	tupleCost := flag.Float64("tuplecost", 0,
		"calibration: simulated per-derivation processing cost in microseconds, "+
			"added to completion time. 0 reports pure measurements; ~1000 approximates "+
			"the per-tuple cost of the paper's 2008 P2 substrate (see docs/BENCHMARKS.md)")
	shared := cliflags.Register(nil)
	flag.Parse()
	if shared.TransportFlagsSet() {
		fmt.Fprintln(os.Stderr, "bestpath: -listen/-self/-peers (the multi-process TCP transport) are only supported by cmd/provnet")
		os.Exit(2)
	}
	if shared.ServiceFlagsSet() {
		fmt.Fprintln(os.Stderr, "bestpath: -store/-http (the durable store log and query API) are only supported by cmd/provnet")
		os.Exit(2)
	}
	// The three paper variants fix the says scheme per column; a -auth
	// override would be silently discarded, so reject it instead.
	if shared.Auth != "none" {
		fmt.Fprintln(os.Stderr, "bestpath: the variants fix the says scheme; -auth is not applicable")
		os.Exit(2)
	}

	var sizes []int
	for _, s := range strings.Split(*ns, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 2 {
			fmt.Fprintf(os.Stderr, "bad node count %q\n", s)
			os.Exit(1)
		}
		sizes = append(sizes, v)
	}

	fmt.Printf("Best-Path evaluation: N in %v, %d run(s) per point, RSA-%d\n",
		sizes, *runs, shared.KeyBits)
	if shared.Churn > 0 {
		fmt.Printf("with live churn: %d link cut(s) per run, measured as incremental re-convergence\n", shared.Churn)
	}
	fmt.Printf("%-6s", "N")
	for _, v := range variants {
		fmt.Printf(" | %-12s %-10s", v.String()+" s", "MB")
	}
	fmt.Println()

	results := map[int]map[provnet.Variant]cell{}
	for _, n := range sizes {
		results[n] = map[provnet.Variant]cell{}
		fmt.Printf("%-6d", n)
		for _, v := range variants {
			c := runPoint(v, n, *runs, *maxCost, *tupleCost, shared)
			results[n][v] = c
			fmt.Printf(" | %-12.3f %-10.3f", c.seconds, c.mb)
		}
		fmt.Println()
	}

	printOverheads(sizes, results)

	if *csvPath != "" {
		if err := writeCSV(*csvPath, sizes, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
}

func runPoint(v provnet.Variant, n, runs int, maxCost int64, tupleCostMicros float64, shared *cliflags.Flags) cell {
	var totalSec, totalMB float64
	for r := 0; r < runs; r++ {
		seed := int64(n*1000 + r)
		g := provnet.RandomGraph(provnet.TopoOptions{
			N: n, AvgOutDegree: 3, MaxCost: maxCost, Seed: seed,
		})
		cfg := provnet.VariantConfig(v, provnet.BestPath)
		auth := cfg.Auth // the variant decides the says scheme, not -auth
		if err := shared.Apply(&cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Auth = auth
		cfg.Graph = g
		cfg.Seed = seed
		net, err := provnet.NewNetwork(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		start := time.Now()
		rep, err := net.Run(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The -churn scenario folds the cost of live link cuts and their
		// incremental re-convergence into the point's time and bandwidth.
		if _, err := shared.RunChurn(context.Background(), net, g); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sec := time.Since(start).Seconds()
		// Calibration model: charge every rule firing the configured
		// substrate cost, approximating the paper's P2 processing time.
		sec += float64(rep.Derivations) * tupleCostMicros / 1e6
		totalSec += sec
		totalMB += float64(net.Transport().Stats().Bytes) / (1 << 20)
	}
	return cell{seconds: totalSec / float64(runs), mb: totalMB / float64(runs)}
}

// printOverheads reports the percentages the paper quotes: SeNDlog vs
// NDlog, and SeNDlogProv vs SeNDlog, per point and averaged.
func printOverheads(sizes []int, results map[int]map[provnet.Variant]cell) {
	fmt.Println("\nOverheads (paper §6 reports: SeNDlog vs NDlog avg +53% time / +36% bw,")
	fmt.Println("falling to +44%/+17% at N=100; SeNDlogProv vs SeNDlog avg +41% time /")
	fmt.Println("+54% bw, falling to +6%/+10% at N=100):")
	fmt.Printf("%-6s | %-22s | %-22s\n", "N", "SeNDlog vs NDlog", "SeNDlogProv vs SeNDlog")
	fmt.Printf("%-6s | %-10s %-11s | %-10s %-11s\n", "", "time%", "bw%", "time%", "bw%")
	var sumT1, sumB1, sumT2, sumB2 float64
	for _, n := range sizes {
		nd := results[n][provnet.VariantNDlog]
		se := results[n][provnet.VariantSeNDlog]
		pr := results[n][provnet.VariantSeNDlogProv]
		t1 := pct(se.seconds, nd.seconds)
		b1 := pct(se.mb, nd.mb)
		t2 := pct(pr.seconds, se.seconds)
		b2 := pct(pr.mb, se.mb)
		sumT1 += t1
		sumB1 += b1
		sumT2 += t2
		sumB2 += b2
		fmt.Printf("%-6d | %+9.1f%% %+10.1f%% | %+9.1f%% %+10.1f%%\n", n, t1, b1, t2, b2)
	}
	k := float64(len(sizes))
	fmt.Printf("%-6s | %+9.1f%% %+10.1f%% | %+9.1f%% %+10.1f%%\n", "avg",
		sumT1/k, sumB1/k, sumT2/k, sumB2/k)
}

func pct(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (x/base - 1) * 100
}

func writeCSV(path string, sizes []int, results map[int]map[provnet.Variant]cell) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "n,variant,seconds,mb")
	for _, n := range sizes {
		for _, v := range variants {
			c := results[n][v]
			fmt.Fprintf(f, "%d,%s,%.6f,%.6f\n", n, v, c.seconds, c.mb)
		}
	}
	return nil
}
