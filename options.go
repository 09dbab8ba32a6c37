package provnet

import (
	"provnet/internal/core"
	"provnet/internal/obs"
	"provnet/internal/storelog"
)

// Option configures a network built by New: each sets one Config field,
// and New(src, opts...) builds what NewNetwork builds from a Config with
// those fields set. A field without an option is set through
// NewNetwork(Config{...}), which stays the wire format for tools that
// unmarshal configs.
type Option func(*Config)

// New builds a network from NDlog/SeNDlog source and options:
//
//	n, err := provnet.New(provnet.BestPath,
//		provnet.WithGraph(g),
//		provnet.WithProv(provnet.ProvDistributed),
//		provnet.WithStore(store))
//
// NewNetwork is the equivalent legacy constructor taking a literal
// Config; prefer New for new code.
func New(source string, opts ...Option) (*Network, error) {
	cfg := Config{Source: source}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewNetwork(cfg)
}

// WithGraph supplies the topology; its links become link facts.
func WithGraph(g *Graph) Option { return func(c *Config) { c.Graph = g } }

// WithAuth selects the says implementation for inter-node messages.
func WithAuth(s AuthScheme) Option { return func(c *Config) { c.Auth = s } }

// WithKeyBits sizes RSA keys (tests shrink this for speed).
func WithKeyBits(n int) Option { return func(c *Config) { c.KeyBits = n } }

// WithProv selects the provenance mode.
func WithProv(m ProvMode) Option { return func(c *Config) { c.Prov = m } }

// WithSeed drives deterministic key generation.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithTransport overrides the message substrate, and optionally names
// the node(s) this process hosts (Config.LocalNodes) for multi-process
// deployments.
func WithTransport(t Transport, localNodes ...string) Option {
	return func(c *Config) {
		c.Transport = t
		c.LocalNodes = append(c.LocalNodes, localNodes...)
	}
}

// WithStore attaches a durability sink: every table change streams into
// s as an ordered event log, sealed and flushed at quiescence points.
// The network closes s on Network.Close.
func WithStore(s Store) Option { return func(c *Config) { c.Store = s } }

// WithMetrics attaches an observability registry (Config.Metrics): the
// network records scheduler, engine, crypto, transport, and store
// series into it, plus a bounded flight recorder of recent rounds. Nil
// (the default) disables instrumentation entirely; evaluation order and
// wire bytes are identical either way. See docs/OBSERVABILITY.md.
func WithMetrics(m *Metrics) Option { return func(c *Config) { c.Metrics = m } }

// Observability (the Config.Metrics / WithMetrics seam).
type (
	// Metrics is the dependency-free metrics registry: atomic counters,
	// gauges, and fixed-bucket histograms with a Prometheus text
	// exposition (Metrics.WritePrometheus) and a flight recorder
	// (Metrics.Flight). All instruments are nil-safe, so code holding a
	// nil registry can still chain Counter(...).Inc() as a no-op.
	Metrics = obs.Metrics
	// FlightRecord is one flight-recorder entry: per-round deltas,
	// timings, and queue depths (served as /v1/debug/rounds by the query
	// API).
	FlightRecord = obs.RoundRecord
)

// NewMetrics returns an empty metrics registry to pass to WithMetrics
// (or Config.Metrics) and scrape via Metrics.WritePrometheus — the
// query API additionally serves it at GET /metrics when present.
func NewMetrics() *Metrics { return obs.New() }

// Durable storage (the Store seam of Config.Store / WithStore).
type (
	// Store receives every table change as an ordered event stream; see
	// core.Store. MemStore is the in-memory reference implementation,
	// StoreLog the durable append-only log.
	Store = core.Store
	// StoreEvent is one table change (insert/retract/expire/annotation).
	StoreEvent = core.StoreEvent
	// StoreState is the replayed materialization of an event stream.
	StoreState = core.StoreState
	// MemStore applies events to an in-memory StoreState (testing and
	// introspection).
	MemStore = core.MemStore
	// StoreLog is the durable append-only log of store events with crash
	// recovery; open one with OpenStoreLog.
	StoreLog = storelog.Log
	// StoreLogOptions tunes fsync behavior.
	StoreLogOptions = storelog.Options
	// StoreLogStats reports what crash recovery found in a log dir.
	StoreLogStats = storelog.RecoverStats
)

// Store event kinds.
const (
	// StoreInsert: a tuple entered a table (or re-entered after expiry).
	StoreInsert = core.EvInsert
	// StoreRetract: a tuple was deleted or cascaded away; the replayed
	// state moves it to the stale set (the paper's retraction-aware
	// provenance keeps tombstones queryable).
	StoreRetract = core.EvRetract
	// StoreExpire: soft-state TTL expiry removed the tuple.
	StoreExpire = core.EvExpire
	// StoreProv: a duplicate derivation changed a tuple's provenance
	// annotation without changing the table.
	StoreProv = core.EvProv
)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return core.NewMemStore() }

// OpenStoreLog opens (or creates) the durable store log in dir. An
// existing log is scanned first: a torn tail is truncated and appends
// resume after the valid prefix; a well-formed record that does not
// decode fails the open.
func OpenStoreLog(dir string, opts StoreLogOptions) (*StoreLog, error) {
	return storelog.Open(dir, opts)
}

// RecoverStoreLog replays every event of the log in dir without opening
// it for writing: the forensics/read-only path. It returns the
// materialized state and recovery statistics (events replayed, valid and
// torn bytes). A well-formed record that does not decode is an error.
func RecoverStoreLog(dir string) (*StoreState, StoreLogStats, error) {
	return storelog.Recover(dir)
}

// Snapshot-isolated reads (the HTTP query API's data plane).
type (
	// ReadView is an immutable copy-on-write snapshot of every hosted
	// node's tables, published by the Driver at quiescence points; read
	// it with Driver.ReadView. Concurrent queries against one view are
	// lock-free and can never observe a torn mix of two states.
	ReadView = core.ReadView
	// ViewRow is one tuple in a ReadView, with its condensed provenance
	// expression when the network runs ProvCondensed.
	ViewRow = core.ViewRow
)

// ParseTuple parses tuple text like "bestPath(n0, n2, [n0,n1,n2], 2)"
// or "b says path(a, b)" — the textual inverse of Tuple.String.
func ParseTuple(s string) (Tuple, error) { return core.ParseTuple(s) }
