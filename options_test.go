package provnet

import (
	"reflect"
	"testing"

	"provnet/internal/auth"
	"provnet/internal/netsim"
)

// TestNewMatchesNewNetwork pins the functional-options constructor to
// the legacy Config surface: the same knobs through either door build
// networks with identical converged tables.
func TestNewMatchesNewNetwork(t *testing.T) {
	g := LineGraph(4)
	store := NewMemStore()

	cfg := Config{
		Source: BestPath,
		Graph:  g,
		Auth:   AuthNone,
		Prov:   ProvDistributed,
		Seed:   5,
	}
	legacy, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()

	opt, err := New(BestPath,
		WithGraph(g),
		WithAuth(AuthNone),
		WithProv(ProvDistributed),
		WithSeed(5),
		WithStore(store),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer opt.Close()

	if _, err := legacy.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Run(0); err != nil {
		t.Fatal(err)
	}
	want := legacy.Driver().ReadView().Dump()
	got := opt.Driver().ReadView().Dump()
	if want == "" || got != want {
		t.Fatalf("options-built network diverges from Config-built:\n--- legacy ---\n%s\n--- options ---\n%s", want, got)
	}
	// The attached store replayed to the same live state.
	if dump := store.State().LiveDump(); dump != want {
		t.Fatalf("WithStore replay diverges from tables:\n%s\nwant:\n%s", dump, want)
	}
}

// TestOptionsCoverConfig spot-checks that each option sets exactly its
// Config field.
func TestOptionsCoverConfig(t *testing.T) {
	var c Config
	tr := netsim.New()
	m := NewMetrics()
	for _, o := range []Option{
		WithKeyBits(512), WithAuth(AuthHMAC), WithProv(ProvCondensed),
		WithSeed(9), WithTransport(tr, "n1"), WithMetrics(m),
	} {
		o(&c)
	}
	switch {
	case c.KeyBits != 512, c.Auth != auth.SchemeHMAC, c.Prov != ProvCondensed,
		c.Seed != 9, c.Transport != tr, len(c.LocalNodes) != 1, c.Metrics != m:
		t.Fatalf("option failed to set its field: %+v", c)
	}
	// The three parallelism knobs were deleted for want of a measured win
	// (CHANGES.md, PR 16); bringing one back should be a loud decision.
	for _, gone := range []string{"Workers", "PipelinedCrypto", "EngineShards"} {
		if _, ok := reflect.TypeOf(c).FieldByName(gone); ok {
			t.Errorf("Config.%s is back: it needs a gated bench/ claim first", gone)
		}
	}
}
