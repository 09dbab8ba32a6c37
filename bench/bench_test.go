package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at tiny size (N=8, two ops or episodes),
// untraced and traced, and holds the output to BENCHMARK.json: every
// declared metric present with its unit, nothing undeclared, no failed
// check. It is the guard that the manifest and the code name the same
// things.
func TestSmoke(t *testing.T) {
	man, err := readManifest(filepath.Join("..", manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	if man.RunSeconds != baseSeconds {
		t.Errorf("run_seconds is %d, the workloads are sized for %d", man.RunSeconds, baseSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(man.Workloads), len(workloads))
	}
	t.Chdir(t.TempDir()) // the runs' scratch directory lands here
	defer func(n int) { probeChurnQueries = n }(probeChurnQueries)
	probeChurnQueries = 40 // a tenth of a second of the open loop

	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, man.Workloads[i].Name, w.name)
		}
		tiny := w
		tiny.n, tiny.episodes = 8, 2
		if tiny.kind != batch {
			tiny.ops = 2
		}
		for _, c := range []struct {
			traced bool
			want   []declared
		}{{false, man.EndToEnd}, {true, man.PerLayer}} {
			res, err := measure(context.Background(), tiny, 1, c.traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, c.traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, c.traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(c.want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json declares %d", w.name, c.traced, len(res.Metrics), len(c.want))
			}
			for _, m := range c.want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v (present %v), want unit %q", w.name, c.traced, m.Name, got, ok, m.Unit)
				}
			}
			if c.traced {
				if info, err := os.Stat(spanFile(tiny)); err != nil || info.Size() == 0 {
					t.Errorf("%s: span file not written: %v", w.name, err)
				}
			}
		}
	}
}
