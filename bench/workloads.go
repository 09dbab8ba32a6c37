package main

// The end-to-end path. Everything in this file drives the system the way
// a user does: it names only package provnet and queryapi.NewServer, so
// the internal wire and seam refactors the ROADMAP plans cannot break it.
// The layer probes (probes.go) are the only code that reaches inside.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"provnet"
	"provnet/internal/queryapi"
)

type kind uint8

const (
	// batch: one op is a fresh network run to fixpoint (§6 Fig 3/4).
	batch kind = iota
	// churn: one op is one link flap through the live Driver.
	churn
	// query: one op is one /v1/traceback query, open loop, under churn.
	query
)

// workload is one fixed instance family. episodes is the size at
// -seconds 20 (BENCHMARK.json's run_seconds); sized scales it.
type workload struct {
	name     string
	kind     kind
	n        int // nodes
	auth     provnet.AuthScheme
	prov     provnet.ProvMode
	episodes int // networks built, each on a topology of its own
	ops      int // per episode: 1 (batch), flaps (churn) or queries (query)
}

const (
	keyBits     = 1024 // the paper's key size
	queryRate   = 400  // open-loop traceback queries per second
	flapEvery   = 100 * time.Millisecond
	lateAfter   = time.Millisecond // a query sent this long after it was due counts as late
	schemaV     = 1                // queryapi.SchemaVersion, pinned (README: pinned symbols)
	baseSeconds = 20
)

var workloads = []workload{
	{name: "fig3-ndlog", kind: batch, n: 40, auth: provnet.AuthNone, prov: provnet.ProvNone, episodes: 32, ops: 1},
	{name: "fig3-sendlogprov", kind: batch, n: 40, auth: provnet.AuthRSA, prov: provnet.ProvCondensed, episodes: 22, ops: 1},
	// 72 flaps are one pass over the links of an N=24, out-degree-3 graph,
	// so an episode's bytes and allocations do not depend on which links
	// the stride happened to reach.
	{name: "live-churn", kind: churn, n: 24, auth: provnet.AuthSession, prov: provnet.ProvCondensed, episodes: 11, ops: 72},
	{name: "traceback-under-churn", kind: query, n: 20, auth: provnet.AuthNone, prov: provnet.ProvDistributed, episodes: 12, ops: 3 * queryRate / 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sized scales the number of episodes to the requested run length. Op
// counts, never durations, are what is fixed: the same -seconds and -seed
// always run the same op sequence, so counts repeat exactly. div shrinks
// the traced rerun.
func (w workload) sized(seconds, div int) workload {
	w.episodes = max(2, w.episodes*seconds/(baseSeconds*div))
	return w
}

func (w workload) graph(seed int64, episode int) *provnet.Graph {
	return provnet.RandomGraph(provnet.TopoOptions{N: w.n, AvgOutDegree: 3, MaxCost: 10, Seed: seed*1000 + int64(episode)})
}

func (w workload) options(g *provnet.Graph, seed int64, extra ...provnet.Option) []provnet.Option {
	return append([]provnet.Option{
		provnet.WithGraph(g), provnet.WithAuth(w.auth), provnet.WithProv(w.prov),
		provnet.WithKeyBits(keyBits), provnet.WithSeed(seed),
	}, extra...)
}

// execute runs every episode of the workload into r.
func (r *run) execute(ctx context.Context) error {
	for e := 0; e < r.w.episodes; e++ {
		ep := r.tr.begin("episode", r.parent)
		var err error
		switch r.w.kind {
		case batch:
			err = r.batchEpisode(ep, e)
		case churn:
			err = r.churnEpisode(ctx, ep, e)
		case query:
			err = r.queryEpisode(ctx, ep, e)
		}
		r.tr.end(ep)
		if err != nil {
			return fmt.Errorf("%s episode %d: %w", r.w.name, e, err)
		}
	}
	return nil
}

// build times topology generation plus provnet.New — the part of set-up
// every workload shares. The caller adds what else precedes its first
// timed op and records the total with r.setupDone.
func (r *run) build(parent span, e int, extra ...provnet.Option) (*provnet.Graph, *provnet.Network, time.Time, error) {
	start := time.Now()
	sp := r.tr.begin("build", parent)
	g := r.w.graph(r.seed, e)
	if r.tr != nil {
		r.reg, r.flightSeq = provnet.NewMetrics(), 0
		extra = append(extra, provnet.WithMetrics(r.reg))
	}
	net, err := provnet.New(provnet.BestPath, r.w.options(g, r.seed*1000+int64(e), extra...)...)
	r.tr.end(sp)
	return g, net, start, err
}

func (r *run) setupDone(start time.Time) { r.setupS = append(r.setupS, time.Since(start).Seconds()) }

// batchEpisode is one Fig 3 op: a fresh network, then Run(0) to the
// distributed fixpoint — the paper's query completion time.
func (r *run) batchEpisode(ep span, e int) error {
	g, net, start, err := r.build(ep, e)
	if err != nil {
		return err
	}
	defer net.Close()
	r.setupDone(start)

	op := r.tr.begin("op", ep)
	win := r.open()
	rep, err := net.Run(0)
	d := r.close(win)
	r.tr.end(op)
	if err != nil {
		return err
	}
	r.opMs = append(r.opMs, ms(d))
	r.traffic(net, 0, 0)
	r.rounds(op)
	r.counters(nil, rep)

	r.ops++
	r.checkState(net.Driver().ReadView(), g.Links, g.Nodes, rep)
	return nil
}

// checkState holds a quiescent network to the oracle: the published view's
// spCost tables equal Graph.Dijkstra on links, no envelope was rejected,
// and under condensed provenance every bestPath row carries an expression.
func (r *run) checkState(view *provnet.ReadView, links []provnet.GraphLink, nodes []string, rep *provnet.Report) {
	r.check(checkCosts(links, nodes, func(node string) []provnet.Tuple { return viewTuples(view, node, "spCost") }))
	if rep.RejectedSig != 0 {
		r.check(fmt.Errorf("%d envelopes rejected for bad signatures", rep.RejectedSig))
	}
	if r.w.prov != provnet.ProvCondensed {
		return
	}
	for _, node := range view.Nodes() {
		for _, row := range view.Rows(node, "bestPath") {
			if row.Prov == "" {
				r.check(fmt.Errorf("bestPath row without a condensed provenance expression: %s at %s", row.Tuple, node))
				return
			}
		}
	}
}

// flap is the churn op: cut a link, re-converge, restore it, re-converge.
// Both halves are timed; the oracle check between them is not.
func (r *run) flap(ctx context.Context, parent span, d *provnet.Driver, g *provnet.Graph, k int) error {
	l := g.Links[k]
	without := append(append([]provnet.GraphLink(nil), g.Links[:k]...), g.Links[k+1:]...)
	var total time.Duration
	for half, links := range [][]provnet.GraphLink{without, g.Links} {
		name, dst := "cut", &r.cutMs
		if half == 1 {
			name, dst = "restore", &r.restoreMs
		}
		sp := r.tr.begin(name, parent)
		win := r.open()
		var err error
		if half == 0 {
			err = d.CutLink(l.From, l.To)
		} else {
			err = d.SetLink(l.From, l.To, l.Cost)
		}
		var rep *provnet.Report
		if err == nil {
			rep, err = d.AwaitQuiescence(ctx)
		}
		dur := r.close(win)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		r.rounds(sp)
		total += dur
		*dst = append(*dst, ms(dur))
		r.checkState(d.ReadView(), links, g.Nodes, rep)
	}
	r.opMs = append(r.opMs, ms(total))
	r.ops++
	return nil
}

// stride returns a step coprime with n, so k*stride mod n visits every
// link before repeating one.
func stride(n int) int {
	for s := 7; ; s++ {
		if gcd(s, n) == 1 {
			return s
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// churnEpisode is a live network with a durable store (fsync on): build,
// Start, initial convergence, then flaps in a fixed stride order.
func (r *run) churnEpisode(ctx context.Context, ep span, e int) error {
	dir := filepath.Join(r.dir, fmt.Sprintf("store-%d", e))
	start := time.Now()
	log, err := provnet.OpenStoreLog(dir, provnet.StoreLogOptions{})
	if err != nil {
		return err
	}
	g, net, _, err := r.build(ep, e, provnet.WithStore(log))
	if err != nil {
		_ = log.Close() // the network never took ownership
		return err
	}
	defer net.Close() // idempotent; the success path closes before recovery
	d := net.Driver()
	if err := d.Start(ctx); err != nil {
		return err
	}
	rep0, err := d.AwaitQuiescence(ctx)
	if err != nil {
		return err
	}
	// The log's size after the initial fill, so events and bytes can be
	// charged to the flaps alone.
	_, fill, err := provnet.RecoverStoreLog(dir)
	if err != nil {
		return err
	}
	r.setupDone(start)
	r.rounds(ep)
	r.dep0 += r.depIndexSize()
	r.checkState(d.ReadView(), g.Links, g.Nodes, rep0)

	msgs0, bytes0 := transportTotals(net)
	step := stride(len(g.Links))
	for k := 0; k < r.w.ops; k++ {
		op := r.tr.begin("op", ep)
		err := r.flap(ctx, op, d, g, k*step%len(g.Links))
		r.tr.end(op)
		if err != nil {
			return err
		}
	}
	r.traffic(net, msgs0, bytes0)
	r.dep1 += r.depIndexSize()
	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		return err
	}
	r.counters(rep0, rep)

	// Durability: what crash recovery replays equals what readers saw.
	final := d.ReadView().Dump()
	if err := net.Close(); err != nil {
		return err
	}
	state, stats, err := provnet.RecoverStoreLog(dir)
	if err != nil {
		return err
	}
	if got := state.LiveDump(); got != final {
		r.check(fmt.Errorf("recovered store differs from final view (%d vs %d bytes)", len(got), len(final)))
	}
	r.storeEvents += int64(stats.Events - fill.Events)
	r.storeBytes += stats.ValidBytes - fill.ValidBytes
	return os.RemoveAll(dir)
}

// flapUntil flaps one link every flapEvery, in stride order, until stop
// closes. gen is odd while a flap is in flight.
func (r *run) flapUntil(ctx context.Context, stop <-chan struct{}, parent span, d *provnet.Driver, g *provnet.Graph, gen *atomic.Int64) error {
	tick := time.NewTicker(flapEvery)
	defer tick.Stop()
	step := stride(len(g.Links))
	for k := 0; ; k++ {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		gen.Add(1)
		err := r.flap(ctx, parent, d, g, k*step%len(g.Links))
		gen.Add(1)
		if err != nil {
			return err
		}
	}
}

// tracebackReply is the part of the /v1 schema the check reads.
type tracebackReply struct {
	V         int    `json:"v"`
	Kind      string `json:"kind"`
	Traceback *struct {
		Tuple string `json:"tuple"`
	} `json:"traceback"`
}

// queryEpisode serves /v1/traceback on loopback while a second goroutine
// flaps a link every flapEvery. Queries are an open loop on one
// keep-alive connection: query i is due at start + i/queryRate whatever
// the server does, and its latency runs from that due time.
func (r *run) queryEpisode(ctx context.Context, ep span, e int) error {
	g, net, start, err := r.build(ep, e)
	if err != nil {
		return err
	}
	defer net.Close()
	d := net.Driver()
	if err := d.Start(ctx); err != nil {
		return err
	}
	rep0, err := d.AwaitQuiescence(ctx)
	if err != nil {
		return err
	}
	srv := httptest.NewServer(queryapi.NewServer(net).Handler())
	defer srv.Close()
	client := srv.Client()
	r.setupDone(start)
	r.rounds(ep)

	// flapGen is odd while a flap is in flight; a 404 for a tuple still in
	// the view that overlapped a flap raced a withdrawal and is counted on
	// its own, neither a miss nor a failure.
	var flapGen atomic.Int64
	stop := make(chan struct{})
	churnDone := make(chan error, 1)
	// The churn goroutine accumulates into a run of its own, merged once
	// it has stopped.
	side := &run{w: r.w, tr: r.tr, reg: r.reg, flightSeq: r.flightSeq, light: true}
	go func() { churnDone <- side.flapUntil(ctx, stop, ep, d, g, &flapGen) }()

	rng := rand.New(rand.NewSource(r.seed*1000 + int64(e)))
	win := r.open()
	t0 := time.Now()
	var firstErr error
	for i := 0; i < r.w.ops && firstErr == nil; i++ {
		due := t0.Add(time.Duration(i) * time.Second / queryRate)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		gen0 := flapGen.Load()
		view := d.ReadView()
		nodes := view.Nodes()
		node := nodes[rng.Intn(len(nodes))]
		rows := view.Rows(node, "bestPath")
		if len(rows) == 0 {
			continue // a cut left this node with no routes; nothing to trace
		}
		target := rows[rng.Intn(len(rows))].Tuple.String()
		if time.Since(due) > lateAfter {
			r.late++
		}
		sp := r.tr.begin("op", ep)
		resp, err := client.Get(srv.URL + "/v1/traceback?maxdepth=12&node=" + url.QueryEscape(node) + "&tuple=" + url.QueryEscape(target))
		if err != nil {
			firstErr = err
			break
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // body fully read; nothing left to lose
		r.opMs = append(r.opMs, ms(time.Since(due)))
		r.tr.end(sp)
		if err != nil {
			firstErr = err
			break
		}
		r.ops++
		r.httpBytes += int64(len(body))
		switch resp.StatusCode {
		case http.StatusOK:
			var reply tracebackReply
			if err := json.Unmarshal(body, &reply); err != nil {
				r.check(fmt.Errorf("traceback %s: %w", target, err))
			} else if reply.V != schemaV || reply.Kind != "traceback" || reply.Traceback == nil || reply.Traceback.Tuple != target {
				r.check(fmt.Errorf("traceback %s: bad reply %.120s", target, body))
			}
		case http.StatusNotFound:
			switch gen := flapGen.Load(); {
			case !viewHas(d.ReadView(), node, target):
				r.miss++ // the target has left the view: nothing to trace any more
			case gen != gen0 || gen%2 == 1:
				// Still in the published view, which only moves at quiescence,
				// while a flap was rewriting the store the handler walks.
				r.raced++
			default:
				r.check(fmt.Errorf("traceback %s at %s: 404 for a live tuple with no flap in flight", target, node))
			}
		default:
			r.check(fmt.Errorf("traceback %s: status %d", target, resp.StatusCode))
		}
	}
	r.close(win)
	close(stop)
	if err := <-churnDone; err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return firstErr
	}
	r.merge(side)
	r.traffic(net, 0, 0)
	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		return err
	}
	r.counters(rep0, rep)
	return nil
}

func viewTuples(v *provnet.ReadView, node, pred string) []provnet.Tuple {
	rows := v.Rows(node, pred)
	out := make([]provnet.Tuple, len(rows))
	for i, row := range rows {
		out[i] = row.Tuple
	}
	return out
}

func viewHas(v *provnet.ReadView, node, tuple string) bool {
	for _, row := range v.Rows(node, "bestPath") {
		if row.Tuple.String() == tuple {
			return true
		}
	}
	return false
}

// transportTotals reads the transport counters by field only, naming no
// netsim type.
func transportTotals(net *provnet.Network) (msgs, bytes int64) {
	st := net.Transport().Stats()
	return st.Messages, st.Bytes
}

// checkCosts compares the union of spCost tables with Graph.Dijkstra on
// the given link set — an oracle that shares no code with the engine.
func checkCosts(links []provnet.GraphLink, nodes []string, spCost func(node string) []provnet.Tuple) error {
	oracle := provnet.CustomGraph(links)
	for _, src := range nodes {
		want := oracle.Dijkstra(src)
		delete(want, src)
		rows := spCost(src)
		if len(rows) != len(want) {
			return fmt.Errorf("spCost at %s: %d rows, oracle has %d", src, len(rows), len(want))
		}
		for _, t := range rows {
			if len(t.Args) != 3 || t.Args[0].Str != src {
				return fmt.Errorf("spCost at %s: malformed row %s", src, t)
			}
			if cost, ok := want[t.Args[1].Str]; !ok || cost != t.Args[2].Int {
				return fmt.Errorf("spCost at %s: %s, oracle says %d (reachable %v)", src, t, cost, ok)
			}
		}
	}
	return nil
}
