// Package cliflags defines the flag set shared by every provnet command
// — scheduler, transport-security, live-churn, and multi-process
// transport knobs — once, so cmd/provnet, cmd/bestpath, and cmd/traceq
// cannot drift apart. It also hosts the
// topology/auth/provenance spec parsers the commands used to copy, and
// the distributed-run helpers behind -listen/-self/-peers (see
// docs/ARCHITECTURE.md for the multi-process deployment model) and the
// provenance-as-a-service knobs -store (durable store log) and -http
// (query API), served by cmd/provnet only (see docs/API.md).
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"provnet"
	"provnet/internal/faultnet"
	"provnet/internal/netsim"
	"provnet/internal/nettcp"
)

// Flags is the shared knob set. Register binds it to a FlagSet; Apply
// copies it onto a provnet.Config.
type Flags struct {
	// Transport security.
	Auth    string
	KeyBits int
	Rekey   int

	// Scheduler.
	Sequential bool
	Unbatched  bool

	// Live churn scenario: cut Churn random links (seeded by ChurnSeed)
	// after initial convergence and re-converge incrementally.
	Churn     int
	ChurnSeed int64

	// Provenance-as-a-service: Store is the durable store-log directory
	// (empty = in-memory only) and HTTP the query-API listen address
	// (empty = no server). Only cmd/provnet serves them; other commands
	// reject the pair via ServiceFlagsSet.
	Store string
	HTTP  string

	// Observability: Metrics attaches a registry to the network
	// (Config.Metrics) — scraped at GET /metrics when -http serves, or
	// dumped to stderr at exit otherwise. PProf additionally mounts
	// net/http/pprof under the -http server (cmd/provnet only).
	Metrics bool
	PProf   bool

	// Multi-process TCP transport: this process hosts the node(s) in
	// Self (comma-separated), listens on Listen, and reaches the other
	// processes through the Peers map. The run ends when the distributed
	// clean-wave fixpoint detector declares (see RunDistributed).
	Listen string
	Self   string
	Peers  string

	// Fault injection: Fault is a drop=P,dup=P,delay=P[,delayops=N]
	// spec wrapping the transport in internal/faultnet under FaultSeed
	// (see ParseFault). Works on both the in-memory fabric and the TCP
	// transport; empty = no injection.
	Fault     string
	FaultSeed int64
}

// Register binds the shared flags to fs (flag.CommandLine when nil) with
// the canonical names and help strings.
func Register(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &Flags{}
	fs.StringVar(&f.Auth, "auth", "none", "says implementation: none, hmac, rsa, session (one RSA handshake per link, then HMAC session MACs in place of the per-round signature)")
	fs.IntVar(&f.KeyBits, "keybits", 1024, "RSA modulus size")
	fs.IntVar(&f.Rekey, "rekey", 0, "rotate session keys every N rounds (0 = never; needs -auth session)")
	fs.BoolVar(&f.Sequential, "sequential", false, "run nodes sequentially within each round (A/B baseline)")
	fs.BoolVar(&f.Unbatched, "unbatched", false, "ship one envelope per tuple, each signed alone, instead of per-destination batches under one signature per round")
	fs.IntVar(&f.Churn, "churn", 0, "after convergence, cut this many random links and re-converge incrementally")
	fs.Int64Var(&f.ChurnSeed, "churnseed", 1, "rng seed for -churn link selection")
	fs.StringVar(&f.Store, "store", "", "durable store-log directory: append every table change, recoverable after a crash")
	fs.StringVar(&f.HTTP, "http", "", "serve the /v1 query API (traceback, tables, bestpath, subscribe) on this address")
	fs.BoolVar(&f.Metrics, "metrics", false, "record scheduler/engine/crypto/transport metrics; served at /metrics with -http, dumped to stderr at exit otherwise")
	fs.BoolVar(&f.PProf, "pprof", false, "mount net/http/pprof under the -http server (cmd/provnet only; needs -http)")
	fs.StringVar(&f.Listen, "listen", "", "host nodes over TCP: listen address (turns on the nettcp transport; needs -self and -peers)")
	fs.StringVar(&f.Self, "self", "", "comma-separated node name(s) this process hosts (TCP transport)")
	fs.StringVar(&f.Peers, "peers", "", "comma-separated name=host:port peer map (TCP transport)")
	fs.StringVar(&f.Fault, "fault", "", "fault-injection spec drop=P,dup=P,delay=P[,delayops=N]: wrap the transport in a seeded fault schedule")
	fs.Int64Var(&f.FaultSeed, "faultseed", 1, "rng seed for the -fault schedule")
	return f
}

// SelfNodes returns the node names this process hosts (-self, comma
// separated).
func (f *Flags) SelfNodes() []string {
	var out []string
	for _, s := range strings.Split(f.Self, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Distributed reports whether the flags select the multi-process TCP
// transport.
func (f *Flags) Distributed() bool { return f.Listen != "" }

// TransportFlagsSet reports whether any multi-process transport flag
// was given — commands that do not support the TCP transport use it to
// reject the whole flag family instead of silently ignoring
// -self/-peers given without -listen.
func (f *Flags) TransportFlagsSet() bool {
	return f.Listen != "" || f.Self != "" || f.Peers != ""
}

// ServiceFlagsSet reports whether -store, -http, or -pprof was given —
// commands other than cmd/provnet use it to reject the service flags
// instead of silently ignoring them (same pattern as TransportFlagsSet).
// -metrics is not a service flag: every command honors it.
func (f *Flags) ServiceFlagsSet() bool { return f.Store != "" || f.HTTP != "" || f.PProf }

// SetupStore opens the durable store log in the -store directory (first
// recovering any state a previous run left there) and attaches it to
// cfg. No-op without -store.
func (f *Flags) SetupStore(cfg *provnet.Config) error {
	if f.Store == "" {
		return nil
	}
	log, err := provnet.OpenStoreLog(f.Store, provnet.StoreLogOptions{})
	if err != nil {
		return err
	}
	cfg.Store = log
	return nil
}

// ParsePeers parses the -peers spec: comma-separated name=host:port.
func ParsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("cliflags: bad -peers entry %q (want name=host:port)", part)
		}
		peers[name] = addr
	}
	return peers, nil
}

// ParseFault parses the -fault spec: comma-separated key=value pairs
// with keys drop, dup, delay (probabilities in [0,1)) and delayops (max
// limbo hold in transport operations).
func ParseFault(spec string) (faultnet.Config, error) {
	var fc faultnet.Config
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fc, fmt.Errorf("cliflags: bad -fault entry %q (want key=value)", part)
		}
		switch key {
		case "drop", "dup", "delay":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p >= 1 {
				return fc, fmt.Errorf("cliflags: -fault %s wants a probability in [0,1), got %q", key, val)
			}
			switch key {
			case "drop":
				fc.Drop = p
			case "dup":
				fc.Dup = p
			case "delay":
				fc.Delay = p
			}
		case "delayops":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return fc, fmt.Errorf("cliflags: -fault delayops wants a positive int, got %q", val)
			}
			fc.DelayOps = n
		default:
			return fc, fmt.Errorf("cliflags: unknown -fault key %q (want drop, dup, delay, delayops)", key)
		}
	}
	return fc, nil
}

// faultAutoRelease keeps a live run's limbo draining: scripted test
// clocks advance manually, but a CLI run needs delayed frames to
// surface without waiting for the next send.
const faultAutoRelease = 10 * time.Millisecond

// wrapFault wraps tr in the -fault schedule when one is given.
func (f *Flags) wrapFault(tr faultnet.Transport) (provnet.Transport, error) {
	if f.Fault == "" {
		return tr.(provnet.Transport), nil
	}
	fc, err := ParseFault(f.Fault)
	if err != nil {
		return nil, err
	}
	fc.Seed = f.FaultSeed
	fc.AutoReleaseEvery = faultAutoRelease
	return faultnet.New(tr, fc), nil
}

// SetupTransport wires the message substrate into cfg. With -listen the
// process joins a multi-process deployment: it hosts the -self node(s),
// reaches every -peers entry over reliable TCP (acked, retransmitted,
// deduplicated frames), and re-announces its soft state when a peer
// restarts. A -fault spec wraps whichever transport results — the TCP
// backend, or an explicit in-memory fabric for single-process chaos
// runs. The returned closer (non-nil only for TCP runs) releases the
// listener and connections; Network.Close also closes it.
func (f *Flags) SetupTransport(ctx context.Context, cfg *provnet.Config) (io.Closer, error) {
	if !f.Distributed() {
		if f.Self != "" || f.Peers != "" {
			return nil, fmt.Errorf("cliflags: -self/-peers require -listen")
		}
		if f.Fault != "" {
			tr, err := f.wrapFault(netsim.New())
			if err != nil {
				return nil, err
			}
			cfg.Transport = tr
		}
		return nil, nil
	}
	locals := f.SelfNodes()
	if len(locals) == 0 {
		return nil, fmt.Errorf("cliflags: -listen requires -self (the node(s) this process hosts)")
	}
	peers, err := ParsePeers(f.Peers)
	if err != nil {
		return nil, err
	}
	tcp, err := nettcp.New(nettcp.Config{Listen: f.Listen, Peers: peers, Context: ctx, Reliable: true})
	if err != nil {
		return nil, err
	}
	tr, err := f.wrapFault(tcp)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	cfg.Transport = tr
	cfg.LocalNodes = locals
	cfg.Resupply = true
	if c, ok := tr.(io.Closer); ok {
		return c, nil
	}
	return tcp, nil
}

// termStallTimeout is how long RunDistributed waits for the termination
// detector before it reports the run stalled: fault detection for a peer
// that never comes up (it would otherwise hold the token forever), far
// above any healthy run. A variable so the package's tests can shorten it.
var termStallTimeout = 30 * time.Second

// RunDistributed drives one process of a multi-process deployment to
// convergence. The lifecycle driver runs live (remote arrivals wake it
// between rounds); what ends the run is the distributed clean-wave
// fixpoint detector — a token circulates the full node ring, carrying
// cumulative activity counters, and the ring root declares termination
// when two consecutive waves return equal sums (sound under loss, delay,
// and reordering; see docs/ARCHITECTURE.md). If the detector has not
// declared within termStallTimeout the wave protocol has stalled — a peer
// is down or unreachable for good — and the run fails with an error
// naming the timeout and the waves completed; nothing is declared.
//
// The returned report spans the whole run.
func (f *Flags) RunDistributed(ctx context.Context, n *provnet.Network) (*provnet.Report, error) {
	d := n.Driver()
	if err := d.Start(ctx); err != nil {
		return nil, err
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	td := n.StartTermination(tctx, provnet.TermConfig{})
	select {
	case <-td.Done():
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(termStallTimeout):
		return nil, fmt.Errorf("cliflags: termination detection stalled: no fixpoint declared within %v (%d waves completed); a peer is down or unreachable", termStallTimeout, td.Waves())
	}
	n.Metrics().Counter("provnet_scheduler_credit_terminations_total", "").Inc()
	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		return nil, err
	}
	if err := n.FlushStore(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Apply copies the shared knobs onto cfg, parsing the auth scheme.
func (f *Flags) Apply(cfg *provnet.Config) error {
	scheme, err := ParseAuth(f.Auth)
	if err != nil {
		return err
	}
	cfg.Auth = scheme
	cfg.KeyBits = f.KeyBits
	cfg.RekeyRounds = f.Rekey
	cfg.Sequential = f.Sequential
	cfg.Unbatched = f.Unbatched
	if f.Metrics {
		cfg.Metrics = provnet.NewMetrics()
	}
	return nil
}

// DumpMetrics writes the registry's Prometheus text exposition to w —
// the exit-time metrics surface for commands that run no HTTP server.
// No-op when the network has no registry (-metrics not given).
func DumpMetrics(w io.Writer, n *provnet.Network) error {
	m := n.Metrics()
	if m == nil {
		return nil
	}
	return m.WritePrometheus(w)
}

// ChurnResult summarizes one -churn scenario run.
type ChurnResult struct {
	// Cut lists the links removed.
	Cut []provnet.GraphLink
	// Rounds and Bytes are the incremental re-convergence cost (rounds of
	// the re-convergence epoch; transport bytes added by it).
	Rounds int
	Bytes  int64
	// Retracted counts tuples withdrawn across all nodes.
	Retracted int64
}

// RunChurn executes the -churn scenario on a converged network: it cuts
// f.Churn random links of g (seeded by f.ChurnSeed) through the live
// driver and waits for incremental re-convergence.
func (f *Flags) RunChurn(ctx context.Context, n *provnet.Network, g *provnet.Graph) (*ChurnResult, error) {
	if f.Churn <= 0 {
		return nil, nil
	}
	if g == nil || len(g.Links) == 0 {
		return nil, fmt.Errorf("cliflags: -churn needs a generated topology")
	}
	rng := rand.New(rand.NewSource(f.ChurnSeed))
	perm := rng.Perm(len(g.Links))
	count := f.Churn
	if count > len(g.Links) {
		count = len(g.Links)
	}
	d := n.Driver()
	before := n.Transport().Stats()
	res := &ChurnResult{}
	for _, i := range perm[:count] {
		l := g.Links[i]
		if err := d.CutLink(l.From, l.To); err != nil {
			return nil, err
		}
		res.Cut = append(res.Cut, l)
	}
	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		return nil, err
	}
	after := n.Transport().Stats()
	res.Rounds = rep.Rounds
	res.Bytes = after.Bytes - before.Bytes
	res.Retracted = rep.Retracted
	return res, nil
}

// String renders the churn summary for CLI output.
func (r *ChurnResult) String() string {
	var cuts []string
	for _, l := range r.Cut {
		cuts = append(cuts, l.From+"->"+l.To)
	}
	return fmt.Sprintf("churn: cut %s; re-converged in %d rounds, %d bytes, %d tuples withdrawn",
		strings.Join(cuts, ","), r.Rounds, r.Bytes, r.Retracted)
}

// ParseAuth parses the -auth flag value.
func ParseAuth(s string) (provnet.AuthScheme, error) {
	switch s {
	case "none":
		return provnet.AuthNone, nil
	case "hmac":
		return provnet.AuthHMAC, nil
	case "rsa":
		return provnet.AuthRSA, nil
	case "session":
		return provnet.AuthSession, nil
	default:
		return 0, fmt.Errorf("unknown auth scheme %q", s)
	}
}

// ParseProv parses the -prov flag value.
func ParseProv(s string) (provnet.ProvMode, error) {
	switch s {
	case "none":
		return provnet.ProvNone, nil
	case "local":
		return provnet.ProvLocal, nil
	case "distributed":
		return provnet.ProvDistributed, nil
	case "condensed":
		return provnet.ProvCondensed, nil
	default:
		return 0, fmt.Errorf("unknown provenance mode %q", s)
	}
}

// ParseTopo parses the -topo spec shared by the commands:
// random:N[:deg[:maxcost[:seed]]], line:N, ring:N, star:N, or none.
func ParseTopo(spec string) (*provnet.Graph, error) {
	if spec == "none" || spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	num := func(i, def int) int {
		if i < len(parts) {
			if v, err := strconv.Atoi(parts[i]); err == nil {
				return v
			}
		}
		return def
	}
	switch parts[0] {
	case "random":
		return provnet.RandomGraph(provnet.TopoOptions{
			N:            num(1, 10),
			AvgOutDegree: num(2, 3),
			MaxCost:      int64(num(3, 1)),
			Seed:         int64(num(4, 1)),
		}), nil
	case "line":
		return provnet.LineGraph(num(1, 4)), nil
	case "ring":
		return provnet.RingGraph(num(1, 4)), nil
	case "star":
		return provnet.StarGraph(num(1, 4)), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", spec)
	}
}
