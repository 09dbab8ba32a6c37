package core_test

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"provnet/internal/auth"
	"provnet/internal/core"
	"provnet/internal/provenance"
	"provnet/internal/storelog"
	"provnet/internal/topo"
)

// soakPairs is how many cut+restore pairs TestSoakHeapPlateau drives and
// soakSampleEvery how many pass between two heap samples;
// soak_race_test.go lowers both under -race, which runs ten times slower.
var soakPairs, soakSampleEvery = 1000, 100

// soakMaxGrowth bounds the heap the soak plateaus at, as a multiple of
// the heap at the first quiescence.
const soakMaxGrowth = 3.0

// TestSoakHeapPlateau drives cut+restore pairs through one Driver in
// live-churn's configuration (Best-Path at N = 24, session MACs,
// condensed provenance and a store log) and samples the live heap after
// a GC every soakSampleEvery pairs. (The spans holding it, which it logs
// too, also count the free room fragmentation leaves in them, which
// moves by about 5 % from one GC to the next.) Every block of pairs between
// two samples cuts and restores the same links in the same order, so the
// samples see the network at the same point of its churn. The last five
// samples must lie within 5 % of each other, and the largest of them
// within soakMaxGrowth of the heap at the first quiescence. A row
// pointing into a decoded frame's values or a slab chunk no one
// compacts, or a dead entry, body copy or group left in a slab chunk
// that a live one pins, keeps storage alive past its rows: before stored
// rows owned their values the heap grew to 7.4× the first sample.
func TestSoakHeapPlateau(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 24, AvgOutDegree: 3, MaxCost: 10, Seed: 1000})
	log, err := storelog.Open(t.TempDir(), storelog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{Source: core.BestPath, Graph: g, Auth: auth.SchemeSession, Prov: provenance.ModeCondensed, KeyBits: 512, Seed: 1000, Store: log})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	d := n.Driver()
	ctx := context.Background()
	settle := func(err error) {
		t.Helper()
		if err == nil {
			_, err = d.AwaitQuiescence(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// heap reports the live heap after a GC, and the spans holding it,
	// which also count the free room fragmentation leaves in them.
	heap := func() (live, spans float64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20), float64(ms.HeapInuse) / (1 << 20)
	}
	start := time.Now()
	settle(nil)
	first, firstSpans := heap()
	var samples, spans []float64
	for i := 0; i < soakPairs; i++ {
		l := g.Links[i%soakSampleEvery*len(g.Links)/soakSampleEvery]
		settle(d.CutLink(l.From, l.To))
		settle(d.SetLink(l.From, l.To, l.Cost))
		if (i+1)%soakSampleEvery == 0 {
			live, s := heap()
			samples, spans = append(samples, live), append(spans, s)
		}
	}
	t.Logf("%d pairs in %v; live heap after a GC (MiB): %.1f at the first quiescence, then %.1f; in spans: %.1f, then %.1f",
		soakPairs, time.Since(start).Round(time.Millisecond), first, samples, firstSpans, spans)
	last := samples[max(0, len(samples)-5):]
	lo, hi := slices.Min(last), slices.Max(last)
	if hi > 1.05*lo {
		t.Errorf("the last %d samples range over %.1f–%.1f MiB: no plateau", len(last), lo, hi)
	}
	if hi > soakMaxGrowth*first {
		t.Errorf("the heap plateaus at %.1f MiB, %.2f× the %.1f MiB at the first quiescence (at most %.1f×)", hi, hi/first, first, soakMaxGrowth)
	}
}
