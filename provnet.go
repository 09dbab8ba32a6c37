// Package provnet is a Go implementation of "Provenance-aware Secure
// Networks" (Zhou, Cronin, Loo — ICDE 2008 workshops): a declarative
// networking system (NDlog / SeNDlog) with authenticated communication and
// network provenance.
//
// A network is assembled from an NDlog or SeNDlog program, a topology, an
// authentication scheme for the "says" operator (none, HMAC, or per-tuple
// RSA signatures), and a provenance mode from the paper's taxonomy (none,
// local derivation trees, distributed pointers, or condensed BDD-encoded
// semiring provenance). Auth: AuthSession is RSA says over session
// authentication: one RSA handshake per (src,dst) link establishes a
// session key and every subsequent envelope is sealed with a cheap
// per-link HMAC (rotating every Config.RekeyRounds rounds), amortizing
// the hostile-world signature cost. Running the network
// executes the program as a distributed stream computation to a
// fixpoint — each round every node evaluates, then every node imports,
// on one pool of GOMAXPROCS workers (Config.Sequential is the reference
// schedule it is pinned against) — after which results and provenance
// can be queried:
//
//	g := provnet.RandomGraph(provnet.TopoOptions{N: 20, AvgOutDegree: 3, MaxCost: 10, Seed: 1})
//	cfg := provnet.VariantConfig(provnet.VariantSeNDlogProv, provnet.BestPath)
//	cfg.Graph = g
//	n, err := provnet.NewNetwork(cfg)
//	...
//	report, err := n.Run(0)
//	best := n.Tuples("n0", "bestPath")
//	expr := n.CondensedExpr("n0", best[0]) // e.g. "<n0*n3>"
//
// Run is the one-shot batch surface. Long-running deployments use the
// lifecycle Driver instead: Start launches a background pump, runtime
// mutations (Inject, SetLink, CutLink, Retract, Advance) feed the
// running engines and re-converge incrementally — a cut link withdraws
// every best path derived from it, across nodes, without a restart — and
// Subscribe streams table updates as they happen. All blocking calls
// honor context cancellation mid-round:
//
//	d := n.Driver()
//	if err := d.Start(ctx); err != nil { ... }
//	sub, _ := d.Subscribe("n0", "bestPath")
//	go func() {
//		for u := range sub.Updates() {
//			fmt.Println(u.Node, u.Tuple, u.Added) // Added=false: withdrawn
//		}
//	}()
//	_, _ = d.AwaitQuiescence(ctx)            // initial convergence
//	_ = d.CutLink("n3", "n7")                // live churn
//	rep, _ := d.AwaitQuiescence(ctx)         // incremental re-convergence
//	_ = d.Close()
//
// Run(maxRounds) is the driver's one converge loop — the loop the live
// pump and AwaitQuiescence run — on the caller's goroutine with a step
// cap, so batch and live results are bit-identical under Sequential,
// Unbatched, and every auth scheme.
//
// Everything above runs in one process over the in-memory transport by
// default. Setting Config.Transport to an internal/nettcp transport and
// Config.LocalNodes to the node(s) this process hosts turns the same
// program into one member of a multi-process deployment over real TCP
// (every process needs the same program, topology, and Seed). Such a
// process keeps a log of its exports and replays it to a peer that
// joins or restarts; a single-process network does not pay for the log.
// See docs/ARCHITECTURE.md, the -listen/-self/-peers flags on
// cmd/provnet, and examples/multiprocess.
//
// The package re-exports the supported surface of the internal packages;
// see README.md and docs/ for an architectural overview (including the
// byte-level wire specification in docs/WIRE.md) and this package's
// examples for complete programs, one per claim of the paper.
package provnet

import (
	"provnet/internal/auth"
	"provnet/internal/core"
	"provnet/internal/data"
	"provnet/internal/datalog"
	"provnet/internal/provenance"
	"provnet/internal/semiring"
	"provnet/internal/topo"
	"provnet/internal/trust"
)

// Core network assembly and execution.
type (
	// Config assembles a network; see core.Config.
	Config = core.Config
	// Network is a running provenance-aware secure network.
	Network = core.Network
	// Node bundles one node's engine, tracker and store.
	Node = core.Node
	// Report summarizes one run (completion time, bandwidth, signatures).
	Report = core.Report
	// Variant names the paper's three evaluated configurations.
	Variant = core.Variant

	// Driver is the live-network lifecycle surface: Start/Step/
	// AwaitQuiescence/Close, runtime mutation (Inject, Retract, SetLink,
	// CutLink, Advance), and Subscribe. Obtain one with Network.Driver().
	Driver = core.Driver
	// Update is one table change streamed to a subscription.
	Update = core.Update
	// Subscription streams table updates for a (node, predicate) filter.
	Subscription = core.Subscription

	// Transport is the message substrate the scheduler runs over. The
	// default is the in-memory internal/netsim fabric; Config.Transport
	// plus Config.LocalNodes swap in internal/nettcp's TCP backend so N
	// OS processes each host one node of the same network (see
	// docs/ARCHITECTURE.md and the -listen/-self/-peers CLI flags).
	Transport = core.Transport

	// TermConfig configures the distributed termination detector; zero
	// values pick production defaults.
	TermConfig = core.TermConfig
	// TermDetector runs the credit/clean-wave termination protocol over
	// the network's node ring: obtain one with Network.StartTermination,
	// wait on Done. See docs/ARCHITECTURE.md (termination detection).
	TermDetector = core.TermDetector
)

// Lifecycle errors.
var (
	// ErrNoFixpoint is returned by Run when the round budget is exceeded.
	ErrNoFixpoint = core.ErrNoFixpoint
	// ErrDriverClosed is returned by driver operations after Close.
	ErrDriverClosed = core.ErrClosed
	// ErrDriverLive is returned by synchronous stepping while Start's
	// background pump owns the round loop.
	ErrDriverLive = core.ErrLive
)

// The paper's §6 variants.
const (
	// VariantNDlog: no authentication, no provenance.
	VariantNDlog = core.VariantNDlog
	// VariantSeNDlog: RSA-authenticated communication, no provenance.
	VariantSeNDlog = core.VariantSeNDlog
	// VariantSeNDlogProv: RSA authentication plus condensed provenance
	// shipped with every tuple.
	VariantSeNDlogProv = core.VariantSeNDlogProv
)

// Canonical programs from the paper.
const (
	// ReachableNDlog is the all-pairs reachability query of §2.1.
	ReachableNDlog = core.ReachableNDlog
	// ReachableSeNDlog is the secure variant of §2.2.
	ReachableSeNDlog = core.ReachableSeNDlog
	// BestPath is the evaluation workload of §6.
	BestPath = core.BestPath
)

// NewNetwork builds and initializes a network.
func NewNetwork(cfg Config) (*Network, error) { return core.NewNetwork(cfg) }

// VariantConfig returns the experiment configuration for a paper variant.
func VariantConfig(v Variant, source string) Config { return core.VariantConfig(v, source) }

// Data model.
type (
	// Tuple is a fact; Value a typed constant.
	Tuple = data.Tuple
	Value = data.Value
)

// Value constructors.
var (
	// Int, Str, Float, Bool wrap a Go constant as a typed Value.
	Int   = data.Int
	Str   = data.Str
	Float = data.Float
	Bool  = data.Bool
	// List builds a list value from elements; Strings from Go strings.
	List    = data.List
	Strings = data.Strings
	// NewTuple builds a tuple from a predicate and values.
	NewTuple = data.NewTuple
)

// Language.
type (
	// Program is a parsed NDlog/SeNDlog program.
	Program = datalog.Program
)

// ParseProgram parses NDlog/SeNDlog source.
func ParseProgram(src string) (*Program, error) { return datalog.Parse(src) }

// Authentication (the says operator).
type (
	// AuthScheme selects the says implementation.
	AuthScheme = auth.Scheme
)

// Says implementations, from benign-world to hostile-world. AuthSession
// is RSA says over the session transport: per-link RSA handshakes
// amortized over HMAC-sealed envelopes.
const (
	// AuthNone appends a cleartext principal header (benign world).
	AuthNone = auth.SchemeNone
	// AuthHMAC seals envelopes with shared-secret MACs.
	AuthHMAC = auth.SchemeHMAC
	// AuthRSA signs every envelope (hostile world, the paper's setup).
	AuthRSA = auth.SchemeRSA
	// AuthSession amortizes AuthRSA: one handshake per link, then HMACs.
	AuthSession = auth.SchemeSession
)

// Provenance.
type (
	// ProvMode selects the taxonomy mode.
	ProvMode = provenance.Mode
	// DerivationTree is the tree representation of Figures 1–2.
	DerivationTree = provenance.Tree
	// ProvQueryOpts configures traceback queries.
	ProvQueryOpts = provenance.QueryOpts
	// Poly is a provenance polynomial (N[X]) over principals.
	Poly = semiring.Poly
)

// Provenance modes (§4).
const (
	// ProvNone records nothing (the NDlog / SeNDlog baselines).
	ProvNone = provenance.ModeNone
	// ProvLocal ships the full derivation tree with every tuple.
	ProvLocal = provenance.ModeLocal
	// ProvDistributed stores per-node pointers; queries trace on demand.
	ProvDistributed = provenance.ModeDistributed
	// ProvCondensed ships BDD-condensed provenance polynomials.
	ProvCondensed = provenance.ModeCondensed
)

// Topologies.
type (
	// Graph is a directed topology with link costs.
	Graph = topo.Graph
	// GraphLink is one directed edge.
	GraphLink = topo.Link
	// TopoOptions configures random generation.
	TopoOptions = topo.Options
)

// Topology constructors.
var (
	// RandomGraph generates the paper's workload topology: strongly
	// connected, average out-degree as configured.
	RandomGraph = topo.RandomConnected
	// LineGraph chains n nodes with bidirectional unit-cost links.
	LineGraph = topo.Line
	// RingGraph is a unidirectional n-ring with unit costs.
	RingGraph = topo.Ring
	// StarGraph is hub-and-spoke with n0 as the hub.
	StarGraph = topo.Star
	// CustomGraph builds a graph from explicit links.
	CustomGraph = topo.Custom
)

// Trust management.
type (
	// TrustPolicy decides on updates from their provenance.
	TrustPolicy = trust.Policy
	// TrustGate audits an update stream against a policy.
	TrustGate = trust.Gate
	// TrustLevels maps principals to security levels.
	TrustLevels = trust.Levels
)

// Trust policies (§3, §4.5).
type (
	// MinLevelPolicy accepts updates whose provenance clears a security
	// level; KVotesPolicy needs k independent derivations.
	MinLevelPolicy = trust.MinLevel
	KVotesPolicy   = trust.KVotes
	// BlacklistPolicy rejects updates whose every derivation involves a
	// banned principal.
	BlacklistPolicy = trust.Blacklist
)

// NewTrustGate builds a policy gate with an audit log.
func NewTrustGate(p TrustPolicy, levels TrustLevels, limit int) *TrustGate {
	return trust.NewGate(p, levels, limit)
}

// TrustLevelMap adapts a map to TrustLevels.
var TrustLevelMap = trust.LevelMap
