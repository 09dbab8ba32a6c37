package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"provnet"
	"provnet/internal/faultnet"
	"provnet/internal/netsim"
	"provnet/internal/nettcp"
)

// flags holds the scheduler, transport-security, churn, service and
// multi-process knobs. registerFlags binds them to a FlagSet; apply
// copies them onto a provnet.Config.
type flags struct {
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
	// (empty = no server).
	Store string
	HTTP  string

	// Observability: Metrics attaches a registry to the network
	// (Config.Metrics) — scraped at GET /metrics when -http serves, or
	// dumped to stderr at exit otherwise. PProf additionally mounts
	// net/http/pprof under the -http server.
	Metrics bool
	PProf   bool

	// Multi-process TCP transport: this process hosts the node(s) in
	// Self (comma-separated), listens on Listen, and reaches the other
	// processes through the Peers map. The run ends when the distributed
	// clean-wave fixpoint detector declares (see runDistributed).
	Listen string
	Self   string
	Peers  string

	// Fault injection: Fault is a drop=P,dup=P,delay=P[,delayops=N]
	// spec wrapping the transport in internal/faultnet under FaultSeed
	// (see parseFault). Works on both the in-memory fabric and the TCP
	// transport; empty = no injection.
	Fault     string
	FaultSeed int64
}

// registerFlags binds the knobs to fs with their names and help strings.
func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
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
	fs.BoolVar(&f.PProf, "pprof", false, "mount net/http/pprof under the -http server (needs -http)")
	fs.StringVar(&f.Listen, "listen", "", "host nodes over TCP: listen address (turns on the nettcp transport; needs -self and -peers)")
	fs.StringVar(&f.Self, "self", "", "comma-separated node name(s) this process hosts (TCP transport)")
	fs.StringVar(&f.Peers, "peers", "", "comma-separated name=host:port peer map (TCP transport)")
	fs.StringVar(&f.Fault, "fault", "", "fault-injection spec drop=P,dup=P,delay=P[,delayops=N]: wrap the transport in a seeded fault schedule")
	fs.Int64Var(&f.FaultSeed, "faultseed", 1, "rng seed for the -fault schedule")
	return f
}

// distributed reports whether the flags select the multi-process TCP
// transport.
func (f *flags) distributed() bool { return f.Listen != "" }

// apply refuses flag combinations that cannot work together, then copies
// the knobs onto cfg, parsing the auth scheme and opening the durable
// store log in the -store directory (first recovering any state a
// previous run left there).
func (f *flags) apply(cfg *provnet.Config) error {
	switch {
	case f.distributed() && f.Churn > 0:
		return fmt.Errorf("-churn needs the whole topology in one process; it does not compose with -listen")
	case f.distributed() && f.HTTP != "":
		return fmt.Errorf("-http serves tables after the run; it does not compose with -listen (which closes the network once termination is declared)")
	case f.PProf && f.HTTP == "":
		return fmt.Errorf("-pprof mounts under the -http server; give -http too")
	}
	scheme, err := parseAuth(f.Auth)
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
	if f.Store != "" {
		log, err := provnet.OpenStoreLog(f.Store, provnet.StoreLogOptions{})
		if err != nil {
			return err
		}
		cfg.Store = log
	}
	return nil
}

// parsePeers parses the -peers spec: comma-separated name=host:port.
func parsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=host:port)", part)
		}
		peers[name] = addr
	}
	return peers, nil
}

// parseFault parses the -fault spec: comma-separated key=value pairs
// with keys drop, dup, delay (probabilities in [0,1)) and delayops (max
// limbo hold in transport operations).
func parseFault(spec string) (faultnet.Config, error) {
	var fc faultnet.Config
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fc, fmt.Errorf("bad -fault entry %q (want key=value)", part)
		}
		switch key {
		case "drop", "dup", "delay":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p >= 1 {
				return fc, fmt.Errorf("-fault %s wants a probability in [0,1), got %q", key, val)
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
				return fc, fmt.Errorf("-fault delayops wants a positive int, got %q", val)
			}
			fc.DelayOps = n
		default:
			return fc, fmt.Errorf("unknown -fault key %q (want drop, dup, delay, delayops)", key)
		}
	}
	return fc, nil
}

// faultAutoRelease keeps a live run's limbo draining: scripted test
// clocks advance manually, but a CLI run needs delayed frames to
// surface without waiting for the next send.
const faultAutoRelease = 10 * time.Millisecond

// wrapFault wraps tr in the -fault schedule when one is given.
func (f *flags) wrapFault(tr provnet.Transport) (provnet.Transport, error) {
	if f.Fault == "" {
		return tr, nil
	}
	fc, err := parseFault(f.Fault)
	if err != nil {
		return nil, err
	}
	fc.Seed = f.FaultSeed
	fc.AutoReleaseEvery = faultAutoRelease
	return faultnet.New(tr, fc), nil
}

// setupTransport wires the message substrate into cfg. With -listen the
// process joins a multi-process deployment: it hosts the -self node(s),
// reaches every -peers entry over reliable TCP (acked, deduplicated
// frames, re-sent only after a reconnect), and re-announces its soft
// state when a peer restarts (setting LocalNodes turns that on). A
// -fault spec wraps whichever transport results — the TCP backend, or an
// explicit in-memory fabric for single-process chaos runs. Network.Close
// releases the TCP listener and connections.
func (f *flags) setupTransport(ctx context.Context, cfg *provnet.Config) error {
	if !f.distributed() {
		if f.Self != "" || f.Peers != "" {
			return fmt.Errorf("-self/-peers require -listen")
		}
		if f.Fault != "" {
			tr, err := f.wrapFault(netsim.New())
			if err != nil {
				return err
			}
			cfg.Transport = tr
		}
		return nil
	}
	var locals []string
	for _, s := range strings.Split(f.Self, ",") {
		if s = strings.TrimSpace(s); s != "" {
			locals = append(locals, s)
		}
	}
	if len(locals) == 0 {
		return fmt.Errorf("-listen requires -self (the node(s) this process hosts)")
	}
	peers, err := parsePeers(f.Peers)
	if err != nil {
		return err
	}
	tcp, err := nettcp.New(nettcp.Config{Listen: f.Listen, Peers: peers, Context: ctx, Reliable: true})
	if err != nil {
		return err
	}
	tr, err := f.wrapFault(tcp)
	if err != nil {
		tcp.Close()
		return err
	}
	cfg.Transport = tr
	cfg.LocalNodes = locals
	return nil
}

// termStallTimeout is how long runDistributed waits for the termination
// detector before it reports the run stalled: fault detection for a peer
// that never comes up (it would otherwise hold the token forever), far
// above any healthy run. A variable so the package's tests can shorten it.
var termStallTimeout = 30 * time.Second

// runDistributed drives one process of a multi-process deployment to
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
func (f *flags) runDistributed(ctx context.Context, n *provnet.Network) (*provnet.Report, error) {
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
		return nil, fmt.Errorf("termination detection stalled: no fixpoint declared within %v (%d waves completed); a peer is down or unreachable", termStallTimeout, td.Waves())
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

// runChurn executes the -churn scenario on a converged network: it cuts
// f.Churn random links of g (seeded by f.ChurnSeed) through the live
// driver, waits for incremental re-convergence and returns the summary
// line.
func (f *flags) runChurn(ctx context.Context, n *provnet.Network, g *provnet.Graph) (string, error) {
	if g == nil || len(g.Links) == 0 {
		return "", fmt.Errorf("-churn needs a generated topology")
	}
	rng := rand.New(rand.NewSource(f.ChurnSeed))
	perm := rng.Perm(len(g.Links))
	d := n.Driver()
	before := n.Transport().Stats()
	var cuts []string
	for _, i := range perm[:min(f.Churn, len(g.Links))] {
		l := g.Links[i]
		if err := d.CutLink(l.From, l.To); err != nil {
			return "", err
		}
		cuts = append(cuts, l.From+"->"+l.To)
	}
	rep, err := d.AwaitQuiescence(ctx)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("churn: cut %s; re-converged in %d rounds, %d bytes, %d tuples withdrawn",
		strings.Join(cuts, ","), rep.Rounds, n.Transport().Stats().Bytes-before.Bytes, rep.Retracted), nil
}

// parseAuth parses the -auth flag value.
func parseAuth(s string) (provnet.AuthScheme, error) {
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

// parseProv parses the -prov flag value.
func parseProv(s string) (provnet.ProvMode, error) {
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

// parseTopo parses the -topo spec: random:N[:deg[:maxcost[:seed]]],
// line:N, ring:N, star:N, or none. A field left off takes its default
// (random:10:3:1:1, line:4, ring:4, star:4); a field that is not a
// number, a field past the kind's last, or an unknown kind is an error
// naming the spec.
func parseTopo(spec string) (*provnet.Graph, error) {
	if spec == "none" || spec == "" {
		return nil, nil
	}
	kind, rest, hasFields := strings.Cut(spec, ":")
	var nums []int
	switch kind {
	case "random":
		nums = []int{10, 3, 1, 1}
	case "line", "ring", "star":
		nums = []int{4}
	default:
		return nil, fmt.Errorf("unknown topology %q", spec)
	}
	if hasFields {
		fields := strings.Split(rest, ":")
		if len(fields) > len(nums) {
			return nil, fmt.Errorf("topology %q: too many fields (%s takes at most %d)", spec, kind, len(nums))
		}
		for i, s := range fields {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("topology %q: %q is not a number", spec, s)
			}
			nums[i] = v
		}
	}
	switch kind {
	case "random":
		return provnet.RandomGraph(provnet.TopoOptions{
			N:            nums[0],
			AvgOutDegree: nums[1],
			MaxCost:      int64(nums[2]),
			Seed:         int64(nums[3]),
		}), nil
	case "line":
		return provnet.LineGraph(nums[0]), nil
	case "ring":
		return provnet.RingGraph(nums[0]), nil
	default:
		return provnet.StarGraph(nums[0]), nil
	}
}
