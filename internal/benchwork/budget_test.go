package benchwork

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"provnet"
	"provnet/internal/queryapi"
)

// budgetCell is one hot-path window with the work it must do and the
// allocations it may make. To re-record after an intended hot-path
// change: run `go test -run TestHotPathAllocBudget -v ./internal/benchwork`
// and copy the four numbers each cell logs.
type budgetCell struct {
	name   string
	stage  func(t *testing.T) func() *provnet.Report
	derivs int64
	stored int64
	rounds int
	allocs uint64
}

var budgetCells = []budgetCell{
	{
		// A fresh network run to its fixpoint under NDlog (no auth, no
		// provenance): the shape of bench/'s fig3-ndlog, the baseline of
		// the paper's overhead ratios. Per-row f_concat lists, index
		// bucket slices, shadow maps and per-round frame and grouping
		// allocations cost 39 706 here; a datagram allocated per frame
		// and a view built from per-table row slices 16 301; a
		// dependency index recording every firing's body → head edges
		// for retraction 15 472; a frame scratch grown per node, where
		// one per pool worker serves every node, 13 921; a value array
		// allocated per decoded frame, which the rows it stored kept
		// alive, where the pool worker lends one arena and a stored row
		// owns a copy, 11 673.
		name: "fig3-batch",
		stage: func(t *testing.T) func() *provnet.Report {
			return BestPathBatchStaged(t.Fatal, provnet.Config{Source: provnet.BestPath}, 40, 4000)
		},
		derivs: 11256, stored: 7147, rounds: 11, allocs: 11203,
	},
	{
		// The same batch run under condensed provenance without auth:
		// fig3-sendlogprov's provenance share, without its RSA. Rendering
		// every view row through a []string per cube, boxing every BDD
		// node ≥ 256 into an annotation, and building each frame's table
		// from nil with its root and ref slices cost 55 313 here; a
		// datagram allocated per frame and a view built from per-table
		// row slices 29 178; the retraction dependency index 28 353; a
		// frame scratch per node 26 958; a value array per decoded frame
		// (see fig3-batch) 24 184.
		name: "fig3-batch-condensed",
		stage: func(t *testing.T) func() *provnet.Report {
			return BestPathBatchStaged(t.Fatal, provnet.Config{Source: provnet.BestPath, Prov: provnet.ProvCondensed}, 40, 4000)
		},
		derivs: 11256, stored: 7147, rounds: 11, allocs: 23714,
	},
	{
		// One huge delta wave self-joined at the hub: nearly all engine,
		// the one shape bench/'s four workloads do not have. A datagram
		// allocated per frame cost 1 962, the retraction dependency
		// index 1 948, a frame scratch per node 1 646.
		name: "fan-in",
		stage: func(t *testing.T) func() *provnet.Report {
			return FanInStaged(t.Fatal, provnet.Config{}, 8, 64, 6, 4000)
		},
		derivs: 6156, stored: 4076, rounds: 2, allocs: 1557,
	},
	{
		// Best-Path under cost churn. A datagram allocated per frame
		// and a view built from per-table row slices cost 5 277, the
		// retraction dependency index 4 399, a frame scratch per node
		// 3 953, a value array per decoded frame (see fig3-batch) and
		// entries never reused (see bestpath-cut) 3 523.
		name: "bestpath-churn",
		stage: func(t *testing.T) func() *provnet.Report {
			return BestPathChurnStaged(t.Fatal, provnet.Config{Source: provnet.BestPath}, 12, 4, 512, 5000)
		},
		derivs: 13907, stored: 4364, rounds: 7, allocs: 3080,
	},
	{
		// The same churn under condensed provenance: the BDD annotation
		// is the mode's only record, so nothing else may allocate for it,
		// and a data frame ships one BDD table for all its tuples — the
		// per-tuple encoding this replaced cost 365 083 here, past the
		// slack. Rendering the expression per store event or view row
		// instead of once per BDD node costs 56 612, past it too; with
		// every rendering, frame table and node box allocated afresh it
		// cost 14 227, with a datagram allocated per frame and a view
		// built from per-table row slices 5 485, with the retraction
		// dependency index 4 609, with a frame scratch per node 4 200,
		// with a value array per decoded frame and entries never reused
		// 3 739.
		name: "bestpath-churn-condensed",
		stage: func(t *testing.T) func() *provnet.Report {
			return BestPathChurnStaged(t.Fatal, provnet.Config{Source: provnet.BestPath, Prov: provnet.ProvCondensed}, 12, 4, 512, 5000)
		},
		derivs: 13907, stored: 4364, rounds: 7, allocs: 3296,
	},
	{
		// Cut and restore of 8 links through the Driver: the churn
		// cells above only lower costs, so this is the one window that
		// runs retraction — the over-delete walk, shadow revival,
		// head-bound re-derivation and the touched aggregate groups'
		// recount. Recounting spCost over each node's whole path table
		// instead fired 5 494 times here (every firing counts as a
		// derivation) and cost 38 899 allocations, with probes that
		// copied every bucket holding a dead row and retraction state
		// allocated afresh per call. Publishing each view with a cloned
		// table map, a NodeView and a row slice per touched node and
		// table, and a datagram per frame, cost 8 466. Over-deleting by
		// walking a dependency index recorded at every firing, instead
		// of evaluating the rules on the dying rows, cost 6 745; with
		// two alternating retraction head slabs instead of one, 6 674;
		// with a frame scratch per node, a sealing scratch from a
		// sync.Pool and frame decoders on a free list, 6 603; with a
		// value array per decoded frame (see fig3-batch) and an entry
		// allocated anew for every row a dead one's place could take,
		// 5 998.
		name: "bestpath-cut",
		stage: func(t *testing.T) func() *provnet.Report {
			return BestPathCutStaged(t.Fatal, provnet.Config{Source: provnet.BestPath}, 24, 8, 5000)
		},
		derivs: 2593, stored: 1352, rounds: 132, allocs: 4891,
	},
	{
		// The same cut and restore with session MACs and condensed
		// provenance, live-churn's configuration: every frame is sealed
		// and opened with its link's keyed MAC, and every changed row's
		// expression is rendered once per BDD node, for the view. A fresh
		// MAC per frame and an expression rendered per row cost 81 273;
		// the whole-table aggregate recount 51 832 (see bestpath-cut);
		// renderings, frame tables and node boxes allocated afresh
		// 22 899; a cloned table map, NodeView and row slice per
		// touched node and table in each view, a tag buffer per sealed
		// batch and a datagram per frame 9 647; the dependency index
		// (see bestpath-cut) 7 475; two head slabs 7 421; a frame
		// scratch per node (see bestpath-cut) 7 336; a value array per
		// decoded frame and entries never reused (see bestpath-cut)
		// 6 728.
		name: "bestpath-cut-session",
		stage: func(t *testing.T) func() *provnet.Report {
			return BestPathCutStaged(t.Fatal, provnet.Config{Source: provnet.BestPath, Auth: provnet.AuthSession, Prov: provnet.ProvCondensed, KeyBits: 512}, 24, 8, 5000)
		},
		derivs: 2593, stored: 1352, rounds: 132, allocs: 5617,
	},
	{
		// The same window with a durable store log attached, fsync on:
		// live-churn's whole configuration. Every table change becomes
		// a store event, and every quiescence flushes the log. Latching
		// store errors through a variable declared in the if statement's
		// init heap-allocated an error box per event, successful appends
		// included; with that, the scheduler's per-call pool slices and
		// closures, inboxes regrown from nil, one MAC tag allocation per
		// envelope and withdrawal lists allocated per call, it cost
		// 17 680; with a map-backed view, a tag buffer per sealed
		// batch and a datagram per frame 9 653; with the dependency
		// index (see bestpath-cut) 7 478; with two head slabs 7 423;
		// with a frame scratch per node 7 335; with a value array per
		// decoded frame and entries never reused 6 724.
		name: "bestpath-cut-session-store",
		stage: func(t *testing.T) func() *provnet.Report {
			log, err := provnet.OpenStoreLog(t.TempDir(), provnet.StoreLogOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { log.Close() })
			return BestPathCutStaged(t.Fatal, provnet.Config{Source: provnet.BestPath, Auth: provnet.AuthSession, Prov: provnet.ProvCondensed, KeyBits: 512, Store: log}, 24, 8, 5000)
		},
		derivs: 2593, stored: 1352, rounds: 132, allocs: 5615,
	},
	{
		// /v1/traceback?maxdepth=12 for every bestPath row of a quiescent
		// network under distributed provenance, served by the query
		// handler into recorders: traceback-under-churn's read side
		// without the churn and the loopback. The work counts are the
		// convergence the queries read. A tree node, derivation, pointer
		// slice and rendered string allocated one by one, each remote
		// subtree encoded afresh to meter its bytes, and a strconv error
		// per bare identifier parsed cost 110 077 here; an indenting
		// JSON encoder built per reply 19 098.
		name: "traceback-distributed",
		stage: func(t *testing.T) func() *provnet.Report {
			return tracebackStaged(t, provnet.Config{Source: provnet.BestPath, Prov: provnet.ProvDistributed}, 20, 5000)
		},
		derivs: 2445, stored: 1589, rounds: 8, allocs: 14155,
	},
}

// tracebackStaged converges the Best-Path workload on a random topology
// of nodes nodes and builds one traceback request and recorder per
// bestPath row; the closure serves them all through the query handler
// and returns the convergence report.
func tracebackStaged(t *testing.T, cfg provnet.Config, nodes int, seed int64) func() *provnet.Report {
	cfg.Graph = provnet.RandomGraph(provnet.TopoOptions{N: nodes, AvgOutDegree: 3, MaxCost: 10, Seed: seed})
	cfg.Seed = seed
	net, err := provnet.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { net.Close() })
	rep, err := net.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	h := queryapi.NewServer(net).Handler()
	view := net.Driver().ReadView()
	var reqs []*http.Request
	for _, node := range view.Nodes() {
		for _, row := range view.Rows(node, "bestPath") {
			reqs = append(reqs, httptest.NewRequest("GET", "/v1/traceback?maxdepth=12&node="+url.QueryEscape(node)+"&tuple="+url.QueryEscape(row.Tuple.String()), nil))
		}
	}
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	return func() *provnet.Report {
		for i, req := range reqs {
			h.ServeHTTP(recs[i], req)
		}
		for i, rec := range recs {
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", reqs[i].URL, rec.Code)
			}
		}
		return rep
	}
}

// allocSlack is how far a window may drift above its recorded
// allocation count before the test fails. The count is a pure function
// of the seed on one processor, so this is room for small intended
// changes, not for noise. The race detector makes sync.Pool drop a share
// of what is put back: traceback-distributed, whose replies draw on
// encoding/json's pools, reads up to 19 % higher under -race, and
// race_test.go widens the slack there. The round's wire scratch, frame
// decoder included, belongs to the pool worker, and reply encoders (with
// the buffers FromTree renders a reply's tuple texts in) sit on a free
// list of their own, not in a sync.Pool: from the pool the decoders cost
// 6–7 thousand more per churn cell under -race, the sealing scratch up
// to 1.6 thousand, and the text buffers up to 1.4 thousand more per
// traceback cell.
var allocSlack = 1.20

// TestHotPathAllocBudget is the allocation bound of the eval → import →
// seal path, on one processor with Config.Metrics nil. Each cell is
// built (topology, keys, initial convergence) outside the window; a GC
// runs, and the Mallocs delta brackets only the staged closure, the way
// testing.B's -benchmem does. The three work counts must be exactly the
// recorded ones — otherwise the workload changed and the allocation
// comparison means nothing — and allocations at most allocSlack × the
// recorded count. There is no wall-clock bound here: that is bench/'s
// op_ms_p50.
//
// TestMetricsDoNotPerturb (internal/core) proves that observing changes
// no result; this test, with metrics nil, is the proof that not
// observing allocates nothing extra.
func TestHotPathAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range budgetCells {
		run := c.stage(t)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		rep := run()
		runtime.ReadMemStats(&m1)
		allocs := m1.Mallocs - m0.Mallocs
		t.Logf("%s: derivs: %d, stored: %d, rounds: %d, retracted: %d, allocs: %d", c.name, rep.Derivations, rep.TuplesStored, rep.Rounds, rep.Retracted, allocs)
		if rep.Derivations != c.derivs || rep.TuplesStored != c.stored || rep.Rounds != c.rounds {
			t.Errorf("%s: workload drift: derivations %d (recorded %d), tuples stored %d (%d), rounds %d (%d)",
				c.name, rep.Derivations, c.derivs, rep.TuplesStored, c.stored, rep.Rounds, c.rounds)
			continue
		}
		if limit := uint64(float64(c.allocs) * allocSlack); allocs > limit {
			t.Errorf("%s: %d allocations in the window, budget %d (recorded %d × %.2f)", c.name, allocs, limit, c.allocs, allocSlack)
		}
	}
}

// setupAllocs is the allocation count of one Best-Path NewNetwork at
// N = 40 with no auth and no provenance: fig3-ndlog's set-up (parse,
// localize, compile, forty engines and their link facts), with the
// topology generated outside the window. Compiling the program once per
// node instead of once per network cost 6 743 here.
const setupAllocs = 1599

// TestSetupAllocBudget is the allocation bound of network construction,
// held like TestHotPathAllocBudget's cells: the node count must be
// exactly 40 and the allocations at most allocSlack × setupAllocs.
func TestSetupAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := provnet.Config{
		Source: provnet.BestPath,
		Graph:  provnet.RandomGraph(provnet.TopoOptions{N: 40, AvgOutDegree: 3, MaxCost: 10, Seed: 4000}),
		Seed:   4000,
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	net, err := provnet.NewNetwork(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	allocs := m1.Mallocs - m0.Mallocs
	t.Logf("setup: nodes: %d, allocs: %d", len(net.Nodes()), allocs)
	if n := len(net.Nodes()); n != 40 {
		t.Fatalf("workload drift: %d nodes, want 40", n)
	}
	if limit := uint64(float64(setupAllocs) * allocSlack); allocs > limit {
		t.Errorf("%d allocations building the network, budget %d (recorded %d × %.2f)", allocs, limit, setupAllocs, allocSlack)
	}
}
