package main

// The layer probes. Each calls one layer's public functions directly, on
// the workload's first topology, and is the only code in the benchmark
// that reaches below package provnet. README.md lists every internal
// symbol pinned here. Probes name nothing from internal/core/wire.go and
// no netsim.Message / netsim.Stats type (values are used by field only).

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"time"

	"provnet"
	"provnet/internal/auth"
	"provnet/internal/data"
	"provnet/internal/datalog"
	"provnet/internal/engine"
	"provnet/internal/netsim"
	"provnet/internal/provenance"
	"provnet/internal/queryapi"
	"provnet/internal/storelog"
	"provnet/internal/topo"
)

const (
	probeReps     = 21 // timed repetitions of a cheap probe; the median is reported
	probeFlaps    = 24 // flaps of the churn probe
	probeQueries  = 200
	bareReps      = 5
	importSamples = 2000
)

// calibTable is larger than the caches, so the kernel below waits on
// memory the way the system's hot paths do.
var calibTable [1 << 20]uint64

// calibrate times a fixed pure-Go kernel (integer mixing scattered over
// an 8 MiB table), so machine drift is visible beside the numbers it
// distorts. The first pass touches the pages; the second is timed.
func calibrate() float64 {
	var start time.Time
	x := uint64(0x9E3779B97F4A7C15)
	for pass := 0; pass < 2; pass++ {
		start = time.Now()
		for i := 0; i < 1<<21; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			calibTable[x&(1<<20-1)] += x
		}
	}
	return ms(time.Since(start))
}

// probeChurnQueries is three seconds of the open loop: twelve samples
// beyond the 99th percentile. A variable so that the smoke test, which
// cannot wait three seconds per workload, can shorten it.
var probeChurnQueries = 3 * queryRate

// timed returns the median duration of reps calls of f.
func timed(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// prober carries what the probes share: the workload's first topology,
// the metrics they fill, and the results later probes build on.
type prober struct {
	w    workload
	seed int64
	g    *provnet.Graph
	tr   *tracer
	m    metrics
	acc  *run // the probes' ops and failed checks

	payload    []byte           // of the run's mean message size, for the crypto and fabric probes
	prog       *datalog.Program // localized Best-Path
	none, cond *bareNet         // bare-engine networks without and with condensed provenance
}

// layerProbes fills m with every per-layer metric: the probes' own
// numbers plus what the quarter-size passes counted (plain and traced on
// one processor, wide on all of them). Every workload
// runs the same probes, so every metric is measured on every run. The
// returned run carries the probes' ops and failed checks.
func layerProbes(ctx context.Context, w workload, seed int64, plain, traced, wide *run, tr *tracer, m metrics) (*run, error) {
	p := &prober{w: w, seed: seed, g: w.graph(seed, 0), tr: tr, m: m, acc: &run{w: workload{name: w.name + " probes"}}}
	p.payload = make([]byte, int(per(float64(plain.netBytes), int(plain.netMsgs))))
	rand.New(rand.NewSource(seed)).Read(p.payload)

	for _, pr := range []struct {
		name string
		f    func(context.Context, span) error
	}{
		{"datalog", p.datalog},
		{"topo", p.topo},
		{"auth", p.auth},
		{"engine+provenance", p.engines},
		{"data", p.data},
		{"netsim", p.netsim},
		{"storelog", p.storelog},
		{"query", p.query},
		{"churn", p.churn},
		{"query-under-churn", p.queryUnderChurn},
	} {
		sp := tr.begin("probe:"+pr.name, 0)
		err := pr.f(ctx, sp)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pr.name, err)
		}
	}

	// What the quarter-size passes counted.
	m.set("auth.signed_per_op", "count", per(float64(plain.signed), plain.ops))
	m.set("auth.macs_per_op", "count", per(float64(plain.macs), plain.ops))
	m.set("netsim.msgs_per_op", "count", per(float64(plain.netMsgs), plain.ops))
	m.set("netsim.bytes_per_msg", "B", per(float64(plain.netBytes), int(plain.netMsgs)))
	m.set("core.cpu_ms_per_op", "ms", per(ms(plain.cpu), plain.ops))
	m.set("core.cpu_per_wall", "x", float64(wide.cpu)/float64(wide.wall))
	m.set("core.parallel_speedup_x", "x", median(plain.opMs)/median(wide.opMs))
	m.set("core.op_ms_tail", "ms", tail(plain.opMs))
	m.set("core.rounds_per_op", "count", per(float64(len(traced.roundMs)), traced.ops))
	m.set("core.round_ms_p50", "ms", median(traced.roundMs))
	m.set("core.seal_ms_per_op", "ms", per(float64(traced.sealNs)/1e6, traced.ops))
	m.set("core.verify_ms_per_op", "ms", per(float64(traced.verifyNs)/1e6, traced.ops))
	m.set("trace.overhead_x", "x", median(traced.opMs)/median(plain.opMs))
	return p.acc, nil
}

// episode runs a one-episode workload of another kind on this workload's
// graph size as a probe, traced, and charges its ops and failed checks to
// the probes.
func (p *prober) episode(ctx context.Context, sp span, pw workload) (*run, error) {
	pw.n, pw.episodes = p.w.n, 1
	r, err := pass(ctx, pw, p.seed, p.tr, sp)
	if err != nil {
		return nil, err
	}
	p.acc.ops += r.ops
	p.acc.failed += r.failed
	p.acc.notes = append(p.acc.notes, r.notes...)
	return r, nil
}

// churn flaps links through a live Driver with a store log attached, on
// this workload's auth scheme and provenance mode.
func (p *prober) churn(ctx context.Context, sp span) error {
	r, err := p.episode(ctx, sp, workload{name: p.w.name + " churn probe", kind: churn, auth: p.w.auth, prov: p.w.prov, ops: probeFlaps})
	if err != nil {
		return err
	}
	p.m.set("core.cut_ms_p50", "ms", median(r.cutMs))
	p.m.set("core.restore_ms_p50", "ms", median(r.restoreMs))
	p.m.set("engine.retracted_per_op", "count", per(float64(r.retracted), r.ops))
	p.m.set("engine.dep_index_growth", "x", per(float64(r.dep1), int(r.dep0)))
	p.m.set("storelog.events_per_op", "count", per(float64(r.storeEvents), r.ops))
	p.m.set("storelog.bytes_per_event", "B", per(float64(r.storeBytes), int(r.storeEvents)))
	return nil
}

// queryUnderChurn is the open query loop beside the flaps: the request
// tail that churn and view publish move, which the quiet query probe
// above does not see.
func (p *prober) queryUnderChurn(ctx context.Context, sp span) error {
	r, err := p.episode(ctx, sp, workload{name: p.w.name + " query probe", kind: query, auth: provnet.AuthNone, prov: provnet.ProvDistributed, ops: probeChurnQueries})
	if err != nil {
		return err
	}
	p.m.set("queryapi.req_ms_p99", "ms", quantile(r.opMs, 0.99))
	p.m.set("queryapi.late_share", "1", per(float64(r.late), r.ops))
	p.m.set("queryapi.miss_share", "1", per(float64(r.miss), r.ops))
	p.m.set("queryapi.raced_share", "1", per(float64(r.raced), r.ops))
	return nil
}

func (p *prober) datalog(context.Context, span) error {
	d, err := timed(probeReps, func() error {
		prog, err := datalog.Parse(provnet.BestPath)
		if err != nil {
			return err
		}
		if err := datalog.Validate(prog); err != nil {
			return err
		}
		p.prog, err = datalog.Localize(prog)
		return err
	})
	p.m.set("datalog.compile_us", "us", us(d))
	return err
}

func (p *prober) topo(context.Context, span) error {
	d, err := timed(probeReps, func() error {
		topo.RandomConnected(topo.Options{N: p.w.n, AvgOutDegree: 3, MaxCost: 10, Seed: p.seed})
		return nil
	})
	p.m.set("topo.gen_ms", "ms", ms(d))
	return err
}

func (p *prober) auth(context.Context, span) error {
	dir := auth.NewDeterministicDirectory(p.seed)
	dir.SetKeyBits(keyBits)
	start := time.Now()
	for _, name := range p.g.Nodes {
		if err := dir.AddPrincipal(name, 1); err != nil {
			return err
		}
	}
	p.m.set("auth.keygen_ms_per_principal", "ms", ms(time.Since(start))/float64(len(p.g.Nodes)))
	src, dst := p.g.Nodes[0], p.g.Nodes[1]

	session := auth.NewSessionSealer(dir, 0)
	_, epoch, err := session.EnsureSession(src, dst)
	if err != nil {
		return err
	}
	hello, err := session.SealHandshake(src, dst, epoch)
	if err != nil {
		return err
	}
	if _, err := session.AcceptHandshake(dst, hello); err != nil {
		return err
	}
	for _, s := range []struct {
		sealer     auth.Sealer
		seal, open string
	}{
		{auth.SignerSealer{S: auth.NewRSASigner(dir)}, "auth.sign_us", "auth.verify_us"},
		{session, "auth.mac_seal_us", "auth.mac_open_us"},
	} {
		var tag []byte
		d, err := timed(probeReps, func() (err error) {
			tag, err = s.sealer.Seal(src, dst, p.payload)
			return err
		})
		if err != nil {
			return err
		}
		p.m.set(s.seal, "us", us(d))
		d, err = timed(probeReps, func() error { return s.sealer.Open(src, dst, p.payload, tag) })
		if err != nil {
			return err
		}
		p.m.set(s.open, "us", us(d))
	}
	return nil
}

// engines runs the bare-engine network: engines wired export-to-import
// with no wire format, crypto or transport between them, without and with
// the condensed-provenance tracker hooked.
func (p *prober) engines(context.Context, span) error {
	var err error
	if p.none, p.cond, err = medianBare(p.g, p.prog); err != nil {
		return err
	}
	none, cond, m := p.none, p.cond, p.m
	for _, b := range []*bareNet{none, cond} {
		p.acc.ops++
		p.acc.check(checkCosts(p.g.Links, p.g.Nodes, func(node string) []provnet.Tuple { return b.engines[node].Tuples("spCost") }))
	}
	m.set("engine.load_us", "us", us(none.load))
	m.set("engine.eval_ms_per_op", "ms", ms(none.eval))
	m.set("engine.import_ms_per_op", "ms", ms(none.imports))
	m.set("engine.firings_per_op", "count", float64(none.firings))
	m.set("engine.exports_per_op", "count", float64(none.exports))
	m.set("provenance.derive_ms_per_op", "ms", ms(cond.eval-none.eval))
	m.set("provenance.export_us", "us", per(us(cond.export), int(cond.exports)))
	m.set("provenance.payload_bytes_per_export", "B", per(float64(cond.payloadBytes), int(cond.exports)))
	nodes := 0
	for _, t := range cond.trackers {
		nodes += t.Manager().NumNodes()
	}
	m.set("bdd.nodes_per_manager", "count", per(float64(nodes), len(cond.trackers)))
	d, err := cond.timeImports()
	m.set("provenance.import_us", "us", us(d))
	return err
}

func (p *prober) data(context.Context, span) error {
	var rows []data.Tuple
	for _, name := range p.g.Nodes {
		rows = append(rows, p.none.engines[name].Tuples("path")...)
	}
	var buf []byte
	enc, err := timed(probeReps, func() error {
		buf = buf[:0]
		for _, t := range rows {
			buf = data.AppendTuple(buf, t)
		}
		return nil
	})
	if err != nil {
		return err
	}
	dec, err := timed(probeReps, func() error {
		for off := 0; off < len(buf); {
			_, n, err := data.DecodeTuple(buf[off:])
			if err != nil {
				return err
			}
			off += n
		}
		return nil
	})
	p.m.set("data.encode_ns_per_tuple", "ns", per(float64(enc), len(rows)))
	p.m.set("data.decode_ns_per_tuple", "ns", per(float64(dec), len(rows)))
	p.m.set("data.bytes_per_tuple", "B", per(float64(len(buf)), len(rows)))
	return err
}

func (p *prober) netsim(context.Context, span) error {
	const batch = 256
	d, err := timed(probeReps, func() error {
		fabric := netsim.New()
		fabric.AddNode("a")
		fabric.AddNode("b")
		for i := 0; i < batch; i++ {
			if err := fabric.Send("a", "b", p.payload); err != nil {
				return err
			}
		}
		if got := len(fabric.Drain("b")); got != batch {
			return fmt.Errorf("drained %d of %d messages", got, batch)
		}
		return nil
	})
	p.m.set("netsim.send_drain_ns_per_msg", "ns", float64(d)/batch)
	return err
}

// storelog appends one quiescence point's worth of events (a node's
// bestPath rows), then seals and fsyncs.
func (p *prober) storelog(context.Context, span) error {
	dir, err := scratchDir("storelog-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := storelog.Open(dir, storelog.Options{})
	if err != nil {
		return err
	}
	defer log.Close() // best effort; the probe reads nothing back
	node := p.g.Nodes[0]
	events := p.none.engines[node].Tuples("bestPath")
	d, err := timed(probeReps, func() error {
		for _, t := range events {
			if err := log.Append(provnet.StoreEvent{Kind: provnet.StoreInsert, Node: node, Tuple: t}); err != nil {
				return err
			}
		}
		if err := log.Seal(); err != nil {
			return err
		}
		return log.Flush()
	})
	p.m.set("storelog.flush_ms_p50", "ms", ms(d))
	return err
}

// bareNet is N engines exchanging exports directly.
type bareNet struct {
	engines  map[string]*engine.Engine
	trackers map[string]*provenance.Tracker // empty without provenance

	load, eval, imports, export    time.Duration
	firings, exports, payloadBytes int64
	shipped                        []shipment // the first importSamples exports
}

type shipment struct {
	from    string
	ex      engine.Export
	payload []byte
}

// runBare loads the program into one engine per node, inserts the link
// facts, and alternates RunToFixpoint with InsertImportedFrom until no
// engine exports anything: core's round structure without core.
func runBare(g *topo.Graph, prog *datalog.Program, mode provenance.Mode) (*bareNet, error) {
	b := &bareNet{engines: map[string]*engine.Engine{}, trackers: map[string]*provenance.Tracker{}}
	loads := make([]float64, 0, len(g.Nodes))
	for _, name := range g.Nodes {
		cfg := engine.Config{Self: name}
		if mode != provenance.ModeNone {
			t := provenance.NewTracker(provenance.TrackerConfig{Mode: mode, Self: name, Store: provenance.NewStore(name)})
			b.trackers[name] = t
			cfg.Hook = t
		}
		e := engine.New(cfg)
		start := time.Now()
		if err := e.LoadProgram(prog); err != nil {
			return nil, err
		}
		loads = append(loads, float64(time.Since(start)))
		b.engines[name] = e
	}
	b.load = time.Duration(median(loads))
	for _, l := range g.Links {
		b.engines[l.From].InsertFact(data.NewTuple("link", data.Str(l.From), data.Str(l.To), data.Int(l.Cost)))
	}
	for {
		var round []shipment
		for _, name := range g.Nodes {
			start := time.Now()
			exports := b.engines[name].RunToFixpoint()
			b.eval += time.Since(start)
			start = time.Now()
			for _, ex := range exports {
				s := shipment{from: name, ex: ex}
				if t := b.trackers[name]; t != nil {
					s.payload = t.Export(ex.Tuple, ex.Ann)
					b.payloadBytes += int64(len(s.payload))
				}
				round = append(round, s)
			}
			b.export += time.Since(start)
		}
		if len(round) == 0 {
			break
		}
		start := time.Now()
		for _, s := range round {
			if err := b.engines[s.ex.Dest].InsertImportedFrom(s.from, s.ex.Tuple, s.payload); err != nil {
				return nil, err
			}
		}
		b.imports += time.Since(start)
		b.exports += int64(len(round))
		if room := importSamples - len(b.shipped); room > 0 {
			b.shipped = append(b.shipped, round[:min(room, len(round))]...)
		}
	}
	for _, e := range b.engines {
		b.firings += e.Stats.Derivations
	}
	return b, nil
}

// medianBare runs the bare network bareReps times in each mode, the two
// modes alternating so that drift hits both alike, and returns the last
// run of each with its timings replaced by the medians.
func medianBare(g *topo.Graph, prog *datalog.Program) (none, cond *bareNet, err error) {
	var last [2]*bareNet
	var load, eval, imports, export [2][]float64
	for i := 0; i < bareReps; i++ {
		for k, mode := range []provenance.Mode{provenance.ModeNone, provenance.ModeCondensed} {
			b, err := runBare(g, prog, mode)
			if err != nil {
				return nil, nil, err
			}
			last[k] = b
			load[k] = append(load[k], float64(b.load))
			eval[k] = append(eval[k], float64(b.eval))
			imports[k] = append(imports[k], float64(b.imports))
			export[k] = append(export[k], float64(b.export))
		}
	}
	for k, b := range last {
		b.load, b.eval = time.Duration(median(load[k])), time.Duration(median(eval[k]))
		b.imports, b.export = time.Duration(median(imports[k])), time.Duration(median(export[k]))
	}
	return last[0], last[1], nil
}

// timeImports replays the sampled shipments through the receiving
// trackers' payload import and returns the time per payload.
func (b *bareNet) timeImports() (time.Duration, error) {
	d, err := timed(probeReps, func() error {
		for _, s := range b.shipped {
			if _, err := b.trackers[s.ex.Dest].Import(s.ex.Tuple, s.payload); err != nil {
				return err
			}
		}
		return nil
	})
	return d / time.Duration(max(1, len(b.shipped))), err
}

// query traces the same targets of a converged, quiet ModeDistributed
// network three ways: DerivationTree called directly, the HTTP handler
// called into a recorder, and a loopback round trip on one keep-alive
// connection.
func (p *prober) query(context.Context, span) error {
	qw := p.w
	qw.auth, qw.prov = provnet.AuthNone, provnet.ProvDistributed
	net, err := provnet.New(provnet.BestPath, qw.options(p.g, p.seed)...)
	if err != nil {
		return err
	}
	defer net.Close()
	if _, err := net.Run(0); err != nil {
		return err
	}
	handler := queryapi.NewServer(net).Handler()
	srv := httptest.NewServer(handler)
	defer srv.Close()
	client := srv.Client()

	var traceUs, handlerUs, rttUs []float64
	hops := 0
	rng := rand.New(rand.NewSource(p.seed))
	names := net.Nodes()
	for i := 0; i < probeQueries; i++ {
		node := names[rng.Intn(len(names))]
		rows := net.Tuples(node, "bestPath")
		target := rows[rng.Intn(len(rows))]
		p.acc.ops++

		start := time.Now()
		_, stats, err := net.DerivationTree(node, target, provenance.QueryOpts{MaxDepth: 12})
		traceUs = append(traceUs, us(time.Since(start)))
		if err != nil {
			return err
		}
		hops += stats.Messages

		path := "/v1/traceback?maxdepth=12&node=" + url.QueryEscape(node) + "&tuple=" + url.QueryEscape(target.String())
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		start = time.Now()
		handler.ServeHTTP(rec, req)
		handlerUs = append(handlerUs, us(time.Since(start)))

		start = time.Now()
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close() // body drained; nothing left to lose
		rtt := time.Since(start)
		if err != nil {
			return err
		}
		rttUs = append(rttUs, us(rtt))
		if rec.Code != http.StatusOK || resp.StatusCode != http.StatusOK {
			p.acc.check(fmt.Errorf("query probe: %s at %s: handler %d, loopback %d", target, node, rec.Code, resp.StatusCode))
		}
	}
	p.m.set("provenance.trace_us_p50", "us", median(traceUs))
	p.m.set("provenance.trace_msgs_per_query", "count", per(float64(hops), probeQueries))
	p.m.set("queryapi.handler_us_p50", "us", median(handlerUs))
	p.m.set("queryapi.http_us_p50", "us", median(rttUs)-median(handlerUs))
	return nil
}
