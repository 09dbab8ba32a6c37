package main

// The repeatability check: the same binary measured as if it were two
// versions, by the protocol a later change will be judged with. A
// benchmark that fails its own A/A cannot gate anything.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// manifest is BENCHMARK.json as this package reads it: the check takes
// the bounds from it, and the smoke test holds the code to the rest.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"` // end-to-end metrics only
}

const (
	manifestPath = "BENCHMARK.json"
	// aaRuns is the number of runs per side: forty runs, about a quarter
	// of an hour here.
	aaRuns = 5
)

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runAA runs every workload aaRuns times per side, each run with another
// seed and in a process of its own, alternating which side goes first,
// then prints both sides' medians and quartiles and fails if any pair of
// medians differs by more than the metric's bound.
func runAA(stderr io.Writer, seed int64) error {
	man, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	// values[workload][metric][side] is that side's sample.
	values := make(map[string]map[string][2][]float64)
	for i := 0; i < aaRuns; i++ {
		for _, w := range workloads {
			if values[w.name] == nil {
				values[w.name] = make(map[string][2][]float64)
			}
			for k := 0; k < 2; k++ {
				side := (i + k) % 2
				res, err := child(stderr, workloadArgs(w.name, seed+int64(i), baseSeconds)...)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					v := values[w.name][name]
					v[side] = append(v[side], m.Value)
					values[w.name][name] = v
				}
			}
		}
	}
	var worst error // every pair that differs, joined
	for _, w := range workloads {
		for _, e := range man.EndToEnd {
			v := values[w.name][e.Name]
			a, b := median(v[0]), median(v[1])
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			diff := (hi - lo) / lo
			verdict := "ok"
			if diff > e.Bound {
				verdict = "DIFFERS"
				worst = errors.Join(worst, fmt.Errorf("a/a: %s/%s medians differ by %.1f%%, bound %.0f%%", w.name, e.Name, 100*diff, 100*e.Bound))
			}
			fmt.Fprintf(stderr, "%-22s %-15s a %s  b %s  diff %5.2f%% of bound %2.0f%%  %s\n",
				w.name, e.Name, quartiles(v[0]), quartiles(v[1]), 100*diff, 100*e.Bound, verdict)
		}
	}
	return worst
}

func quartiles(vs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(vs), quantile(vs, 0.25), quantile(vs, 0.75))
}
