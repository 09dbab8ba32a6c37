// Command benchgate is the hot-path performance regression gate. It
// runs the two allocation-sensitive workloads — the wide fan-in join
// (sharded-fanin) and the Best-Path refresh churn (bestpath-churn) —
// under a GOMAXPROCS sweep,
// measuring wall-clock and allocations over exactly the evaluation
// window: the staged benchwork entry points exclude topology
// construction and principal key generation, so the numbers track the
// engine/import/seal path this gate protects.
//
// Record a baseline (checked in as BENCH_pr7.json):
//
//	go run ./cmd/benchgate -record -out BENCH_pr7.json
//
// Gate against it (CI, `make benchgate`):
//
//	go run ./cmd/benchgate -baseline BENCH_pr7.json
//
// The gate compares each (workload, gomaxprocs) cell and exits 1 when
// ns/op or allocs/op regress past the tolerance. Allocation counts are
// near-deterministic and survive machine changes, so -allocs-tol is
// tight; wall-clock moves with hardware and CI-runner load, so -ns-tol
// is deliberately generous — the allocation bound is the real tripwire.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"provnet"
	"provnet/internal/benchwork"
)

// cell is one measured (workload, gomaxprocs) point.
type cell struct {
	Workload    string `json:"workload"`
	Procs       int    `json:"gomaxprocs"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Derivations/TuplesStored/Rounds pin the work done: they must be
	// identical between baseline and gate runs, or the comparison is
	// meaningless (the workload itself changed).
	Derivations  int64 `json:"derivations"`
	TuplesStored int64 `json:"tuples_stored"`
	Rounds       int   `json:"rounds"`
}

type output struct {
	Workload string `json:"workload"`
	Runs     int    `json:"runs"`
	Note     string `json:"note,omitempty"`
	Cells    []cell `json:"results"`
}

func main() {
	record := flag.Bool("record", false, "write a fresh baseline instead of gating")
	out := flag.String("out", "BENCH_pr7.json", "output path for -record")
	baseline := flag.String("baseline", "BENCH_pr7.json", "baseline to gate against")
	runs := flag.Int("runs", 3, "averaging runs per cell")
	cpus := flag.String("cpus", "1,2,4", "comma-separated GOMAXPROCS sweep")
	nsTol := flag.Float64("ns-tol", 2.0, "allowed ns/op ratio vs baseline (wall-clock is machine-dependent)")
	allocsTol := flag.Float64("allocs-tol", 1.20, "allowed allocs/op ratio vs baseline")
	note := flag.String("note", "", "free-form note stored in the recorded baseline")
	metrics := flag.Bool("metrics", false, "attach a fresh obs registry to every run — measures the enabled-instrumentation overhead")
	flag.Parse()

	var procsList []int
	for _, s := range strings.Split(*cpus, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			fatal(fmt.Errorf("bad -cpus entry %q", s))
		}
		procsList = append(procsList, p)
	}

	// With -metrics each run gets its own fresh registry (mirroring how a
	// deployment would wire one network to one registry); without it the
	// Config.Metrics field stays nil, which is what the checked-in
	// baselines measure — the disabled path must stay allocation-free.
	withMetrics := func(cfg provnet.Config) provnet.Config {
		if *metrics {
			cfg.Metrics = provnet.NewMetrics()
		}
		return cfg
	}
	o := output{Workload: "hotpath-gate", Runs: *runs, Note: *note}
	for _, procs := range procsList {
		o.Cells = append(o.Cells,
			measure("sharded-fanin", procs, *runs, func(i int) func() *provnet.Report {
				cfg := withMetrics(provnet.Config{})
				return benchwork.ShardedFanInStaged(fatal, cfg, 8, 64, 6, int64(4000+i))
			}),
			measure("bestpath-churn", procs, *runs, func(i int) func() *provnet.Report {
				cfg := withMetrics(provnet.Config{Source: provnet.BestPath})
				return benchwork.BestPathChurnStaged(fatal, cfg, 12, 4, 512, int64(5000+i))
			}),
		)
	}

	if *record {
		b, err := json.MarshalIndent(o, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
		return
	}

	base := readBaseline(*baseline)
	if gate(base, o, *nsTol, *allocsTol) {
		fmt.Println("benchgate: PASS")
		return
	}
	fmt.Fprintln(os.Stderr, "benchgate: FAIL — hot-path regression vs", *baseline)
	os.Exit(1)
}

// measure runs one workload *runs* times at the given GOMAXPROCS,
// timing and allocation-counting only the staged closure. Setup (and
// its garbage) stays outside the window: a GC runs between setup and
// measurement, and Mallocs/TotalAlloc deltas bracket the closure the
// way testing.B's -benchmem does.
func measure(name string, procs, runs int, stage func(i int) func() *provnet.Report) cell {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	c := cell{Workload: name, Procs: procs}
	var m0, m1 runtime.MemStats
	for i := 0; i < runs; i++ {
		run := stage(i)
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		rep := run()
		c.NsPerOp += time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&m1)
		c.AllocsPerOp += int64(m1.Mallocs - m0.Mallocs)
		c.BytesPerOp += int64(m1.TotalAlloc - m0.TotalAlloc)
		c.Derivations += rep.Derivations
		c.TuplesStored += rep.TuplesStored
		c.Rounds += rep.Rounds
	}
	k := int64(runs)
	c.NsPerOp /= k
	c.AllocsPerOp /= k
	c.BytesPerOp /= k
	c.Derivations /= k
	c.TuplesStored /= k
	c.Rounds /= runs
	fmt.Printf("%-16s procs=%d %12d ns/op %9d allocs/op %10d B/op %7d derivations\n",
		c.Workload, c.Procs, c.NsPerOp, c.AllocsPerOp, c.BytesPerOp, c.Derivations)
	return c
}

// gate compares every freshly measured cell against its baseline twin
// and reports whether all of them hold. Cells absent from the baseline
// pass with a warning (a new sweep point has no history yet); a
// derivation-count mismatch fails outright because it means the two
// runs did different work.
func gate(base, now output, nsTol, allocsTol float64) bool {
	idx := make(map[string]cell, len(base.Cells))
	for _, c := range base.Cells {
		idx[c.Workload+"/"+strconv.Itoa(c.Procs)] = c
	}
	ok := true
	for _, c := range now.Cells {
		key := c.Workload + "/" + strconv.Itoa(c.Procs)
		b, found := idx[key]
		if !found {
			fmt.Printf("%-24s SKIP (no baseline cell)\n", key)
			continue
		}
		if c.Derivations != b.Derivations || c.TuplesStored != b.TuplesStored {
			fmt.Printf("%-24s FAIL workload drift: derivations %d→%d tuples %d→%d\n",
				key, b.Derivations, c.Derivations, b.TuplesStored, c.TuplesStored)
			ok = false
			continue
		}
		nsRatio := ratio(c.NsPerOp, b.NsPerOp)
		alRatio := ratio(c.AllocsPerOp, b.AllocsPerOp)
		cellOK := nsRatio <= nsTol && alRatio <= allocsTol
		verdict := "ok"
		if !cellOK {
			verdict = "FAIL"
			ok = false
		}
		// Absolute baseline→current values on every cell, pass or fail:
		// a passing 1.18x allocs drift is invisible in ratios alone but
		// obvious as 52310→61726, and it is next PR's failure.
		fmt.Printf("%-24s %-4s ns/op %.2fx (tol %.2fx, %d→%d)  allocs/op %.2fx (tol %.2fx, %d→%d)\n",
			key, verdict, nsRatio, nsTol, b.NsPerOp, c.NsPerOp, alRatio, allocsTol, b.AllocsPerOp, c.AllocsPerOp)
	}
	return ok
}

func ratio(now, base int64) float64 {
	if base <= 0 {
		return 1
	}
	return float64(now) / float64(base)
}

func readBaseline(path string) output {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var o output
	if err := json.Unmarshal(b, &o); err != nil {
		fatal(fmt.Errorf("parse %s: %w", path, err))
	}
	return o
}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchgate:"}, args...)...)
	os.Exit(1)
}
