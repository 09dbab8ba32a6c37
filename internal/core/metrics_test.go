package core

import (
	"strings"
	"testing"

	"provnet/internal/obs"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// TestMetricsDoNotPerturb is the determinism pin for instrumentation:
// an identical run with and without a Metrics registry must produce
// byte-identical tables and the same report counters — observing the
// system must not change what it computes.
func TestMetricsDoNotPerturb(t *testing.T) {
	run := func(m *obs.Metrics) (*Network, string, *Report) {
		n, err := NewNetwork(Config{
			Source:  BestPath,
			Graph:   topo.Line(5),
			Prov:    provenance.ModeDistributed,
			Metrics: m,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := n.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return n, n.Driver().ReadView().Dump(), rep
	}

	base, baseDump, baseRep := run(nil)
	m := obs.New()
	got, gotDump, gotRep := run(m)

	if gotDump != baseDump {
		t.Errorf("tables diverge with metrics enabled:\n--- without ---\n%s\n--- with ---\n%s", baseDump, gotDump)
	}
	if gotRep.Rounds != baseRep.Rounds || gotRep.Derivations != baseRep.Derivations ||
		gotRep.Messages != baseRep.Messages || gotRep.Bytes != baseRep.Bytes {
		t.Errorf("report diverges with metrics enabled: rounds %d/%d derivations %d/%d messages %d/%d bytes %d/%d",
			baseRep.Rounds, gotRep.Rounds, baseRep.Derivations, gotRep.Derivations,
			baseRep.Messages, gotRep.Messages, baseRep.Bytes, gotRep.Bytes)
	}

	// The run must have populated the scheduler, engine, and transport
	// families plus the flight recorder.
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, series := range []string{
		"provnet_scheduler_rounds_total",
		"provnet_scheduler_round_seconds_count",
		"provnet_engine_firings_total",
		"provnet_engine_waves_total",
		"provnet_transport_messages_total",
		"provnet_transport_bytes_total",
		"provnet_crypto_verify_seconds_count",
		"provnet_scheduler_deltas_in_total",
		"provnet_scheduler_deltas_out_total",
		"provnet_view_rows_rebuilt_total",
		"provnet_view_tables_shared_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("missing series %s in exposition:\n%s", series, text)
		}
	}
	if m.Counter("provnet_scheduler_rounds_total", "").Value() != int64(gotRep.Rounds) {
		t.Errorf("rounds counter %d != report rounds %d",
			m.Counter("provnet_scheduler_rounds_total", "").Value(), gotRep.Rounds)
	}
	if m.Counter("provnet_engine_firings_total", "").Value() != gotRep.Derivations {
		t.Errorf("firings counter %d != report derivations %d",
			m.Counter("provnet_engine_firings_total", "").Value(), gotRep.Derivations)
	}

	recs := m.Flight.Snapshot()
	if len(recs) == 0 {
		t.Fatal("flight recorder empty after a full run")
	}
	var firings int64
	sawQuiesce := false
	for _, r := range recs {
		firings += r.Firings
		if r.Kind == "quiesce" {
			sawQuiesce = true
		}
	}
	if firings != gotRep.Derivations {
		t.Errorf("flight-record firings sum %d != report derivations %d", firings, gotRep.Derivations)
	}
	if !sawQuiesce {
		t.Error("no quiesce record in flight recorder")
	}

	// The one publish so far was the full build: every row rendered,
	// nothing to share. A flap then publishes a patched view — the same
	// one with and without the registry — that shares most tables.
	rebuilt := m.Counter("provnet_view_rows_rebuilt_total", "")
	shared := m.Counter("provnet_view_tables_shared_total", "")
	if rows := int64(strings.Count(gotDump, "\n") + 1); rebuilt.Value() != rows || shared.Value() != 0 {
		t.Errorf("first publish: %d rows rebuilt, %d tables shared; want %d, 0", rebuilt.Value(), shared.Value(), rows)
	}
	for _, n := range []*Network{base, got} {
		if err := n.Driver().CutLink("n3", "n4"); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := base.Driver().ReadView(), got.Driver().ReadView(); a.Dump() != b.Dump() || a.Seq != 2 || b.Seq != 2 {
		t.Errorf("patched views diverge with metrics enabled (Seq %d/%d):\n--- without ---\n%s\n--- with ---\n%s", a.Seq, b.Seq, a.Dump(), b.Dump())
	}
	if shared.Value() == 0 {
		t.Error("no table shared across a one-link flap")
	}
}

// TestMetricsRetractionRounds pins retract-phase instrumentation: link
// churn through the driver must produce retract-kind rounds and a
// nonzero retracted counter.
func TestMetricsRetractionRounds(t *testing.T) {
	m := obs.New()
	n, err := NewNetwork(Config{
		Source:  BestPath,
		Graph:   topo.Line(4),
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	ctx := t.Context()
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.CutLink("n1", "n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("provnet_scheduler_retract_rounds_total", "").Value(); got == 0 {
		t.Error("no retract rounds counted after a link cut")
	}
	if got := m.Counter("provnet_engine_retracted_total", "").Value(); got == 0 {
		t.Error("no retracted tuples counted after a link cut")
	}
	sawRetract := false
	for _, r := range m.Flight.Snapshot() {
		if r.Kind == "retract" {
			sawRetract = true
			break
		}
	}
	if !sawRetract {
		t.Error("no retract-kind flight record after a link cut")
	}
}

// TestOneQuiescePerQuiescencePoint pins the single funnel: every awaited
// quiescence point — initial convergence plus three link cuts — publishes,
// seals the store, and writes its flight record exactly once, whether the
// pump or the caller's goroutine converged it.
func TestOneQuiescePerQuiescencePoint(t *testing.T) {
	cuts := [][2]string{{"n4", "n5"}, {"n2", "n3"}, {"n0", "n1"}}
	for _, mode := range []string{"live", "synchronous"} {
		t.Run(mode, func(t *testing.T) {
			m, store := obs.New(), NewMemStore()
			n, err := NewNetwork(Config{Source: BestPath, Graph: topo.Line(6), Store: store, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			d, ctx := n.Driver(), t.Context()
			if mode == "live" {
				if err := d.Start(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := d.AwaitQuiescence(ctx); err != nil {
					t.Fatal(err)
				}
			} else if _, err := n.Run(0); err != nil {
				t.Fatal(err)
			}
			for _, c := range cuts {
				if err := d.CutLink(c[0], c[1]); err != nil {
					t.Fatal(err)
				}
				if _, err := d.AwaitQuiescence(ctx); err != nil {
					t.Fatal(err)
				}
			}
			want := 1 + len(cuts)
			records := 0
			for _, r := range m.Flight.Snapshot() {
				if r.Kind == "quiesce" {
					records++
				}
			}
			if seals, counted := store.Seals(), m.Counter("provnet_scheduler_quiesces_total", "").Value(); seals != want || counted != int64(want) || records != want {
				t.Errorf("%d seals, quiesces_total %d, %d quiesce flight records; want %d each", seals, counted, records, want)
			}
			if seq := d.ReadView().Seq; seq != uint64(want) {
				t.Errorf("view Seq = %d, want one publish per quiescence point (%d)", seq, want)
			}
		})
	}
}
