package lint

// Config scopes the analyzers. DefaultConfig encodes this repo's
// invariants (docs/LINTING.md); tests substitute configs that point
// the same analyzers at testdata packages.
type Config struct {
	// Module is the module path ("provnet").
	Module string

	// MapIterPkgs are the packages whose output feeds a determinism
	// pin (ordered commit/export, seal/send, store append, wire
	// encode): every range over a map there must be provably
	// order-insensitive (collect-then-sort) or annotated.
	MapIterPkgs []string

	// DetPathPkgs are the packages that must be free of wall-clock
	// and randomness reads (time.Now/Since, math/rand) and of
	// formatting map values directly.
	DetPathPkgs []string

	// DataPkg is the package defining Tuple.Key/Value.Key ("the wire
	// codec"); KeyString flags calls to those methods anywhere else.
	DataPkg string

	// KeyStringPkgs are additional packages where Key() bytes are the
	// contract (none by default: the store-state and provenance
	// callers carry per-site annotations instead, so each use states
	// its reason).
	KeyStringPkgs []string

	// KeyStringFuncs maps package path -> function names allowed to
	// call Key() (provenance.KeyOf: sha256 over the canonical bytes
	// IS the wire-format provenance pointer).
	KeyStringFuncs map[string][]string

	// Layers are the import-boundary rules from docs/ARCHITECTURE.md's
	// package map.
	Layers []LayerRule

	// InitAddrPkgs are the hot-path packages, where an if or switch
	// init variable must not have its address taken.
	InitAddrPkgs []string

	// ObsPkg is the metrics package; NilMetrics forbids bypassing its
	// nil-safe method surface (field access or dereference of an
	// instrument) everywhere outside it.
	ObsPkg string
}

// A LayerRule forbids a package from importing certain paths. A Deny
// entry ending in "/" is a prefix; Except carves exact paths back out.
type LayerRule struct {
	Pkg    string
	Deny   []string
	Except []string
	Why    string
}

// DefaultConfig returns the rule tables for this repository.
func DefaultConfig() *Config {
	const m = "provnet"
	transportDeny := []string{m + "/internal/auth", m + "/internal/core", m + "/internal/obs", m + "/internal/provenance"}
	const transportWhy = "a transport carries datagrams, not sessions: core.Transport is its one contract and obs reads netsim.Stats from outside"
	return &Config{
		Module: m,
		MapIterPkgs: []string{
			m + "/internal/engine",   // ordered-commit/export stage
			m + "/internal/core",     // seal/send + wire encode
			m + "/internal/storelog", // store append/recovery
			m + "/internal/data",     // wire codec
		},
		DetPathPkgs: []string{
			m + "/internal/engine",
			m + "/internal/data",
			m + "/internal/core", // round functions; metrics/driver timing sites are annotated
		},
		DataPkg: m + "/internal/data",
		InitAddrPkgs: []string{
			m + "/internal/core",
			m + "/internal/engine",
			m + "/internal/data",
			m + "/internal/netsim",
			m + "/internal/auth",
			m + "/internal/provenance",
			m + "/internal/bdd",
			m + "/internal/storelog",
		},
		KeyStringFuncs: map[string][]string{
			m + "/internal/provenance": {"KeyOf"},
		},
		Layers: []LayerRule{
			{
				Pkg:  m + "/internal/engine",
				Deny: []string{m + "/internal/obs", m + "/internal/core"},
				Why:  "engine is instrumented from core via sampling, never imports obs or its caller",
			},
			{Pkg: m + "/internal/netsim", Deny: transportDeny, Why: transportWhy},
			{Pkg: m + "/internal/nettcp", Deny: transportDeny, Why: transportWhy},
			{Pkg: m + "/internal/faultnet", Deny: transportDeny, Why: transportWhy},
			{
				Pkg:    m + "/internal/data",
				Deny:   []string{m + "/internal/"},
				Except: nil,
				Why:    "the tuple/value model and wire codec sit at the bottom of the package map",
			},
			{
				Pkg:  m + "/internal/queryapi",
				Deny: []string{m + "/internal/engine"},
				Why:  "the query API reads published ReadView snapshots, never the live engines",
			},
		},
		ObsPkg: m + "/internal/obs",
	}
}
