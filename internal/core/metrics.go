package core

import (
	"sync/atomic"
	"time"

	"provnet/internal/engine"
	"provnet/internal/netsim"
	"provnet/internal/obs"
)

// netMetrics bundles the Network's observability instruments. It is
// nil when Config.Metrics is nil, so every instrumented path pays one
// nil check and nothing else when observability is off — the allocation
// budget (internal/benchwork, TestHotPathAllocBudget) enforces that
// contract. When on, hot-path updates are atomic adds on pre-created
// instruments; everything that needs a map or a sort happens at scrape
// time or at round granularity.
//
// Layering: engine and the transports do not import obs. Engine
// activity is sampled here from cumulative engine.Stats sums at round
// boundaries (under the driver's run lock, so the reads are race-free),
// and transport counters are surfaced as scrape-time funcs over the
// Transport.Stats() the transports already maintain.
type netMetrics struct {
	m *obs.Metrics

	rounds        *obs.Counter
	retractRounds *obs.Counter
	quiesces      *obs.Counter

	waves         *obs.Counter
	firings       *obs.Counter
	retracted     *obs.Counter
	shadowEvicted *obs.Counter
	deltasIn      *obs.Counter
	deltasOut     *obs.Counter

	viewRebuilt *obs.Counter
	viewShared  *obs.Counter

	roundSec  *obs.Histogram
	sealSec   *obs.Histogram
	verifySec *obs.Histogram
	flushSec  *obs.Histogram

	shadowSize *obs.Gauge
	arenaHW    *obs.Gauge
	bddNodes   *obs.Gauge
	exprMemo   *obs.Gauge
	subs       *obs.Gauge

	// sealNanos/verifyNanos accumulate crypto time within the current
	// round. The parallel scheduler's workers add concurrently; the
	// round boundary reads and resets them under the run lock.
	sealNanos   atomic.Int64
	verifyNanos atomic.Int64

	// prev* snapshot the cumulative sums at the previous round boundary;
	// per-round figures are diffs against them. Round boundaries are
	// serialized by the run lock, so plain fields suffice.
	prev          engine.Stats
	prevEvictions int64
	prevIn        int64
	prevOut       int64
}

// newNetMetrics creates the Network's instruments in registry m and
// registers the scrape-time funcs that read state owned elsewhere.
func newNetMetrics(m *obs.Metrics, n *Network) *netMetrics {
	nm := &netMetrics{
		m:             m,
		rounds:        m.Counter("provnet_scheduler_rounds_total", "Forward scheduler rounds executed (export+import phases)."),
		retractRounds: m.Counter("provnet_scheduler_retract_rounds_total", "Withdrawal-only rounds executed while draining retraction waves."),
		quiesces:      m.Counter("provnet_scheduler_quiesces_total", "Quiescence decisions: view published and durable store sealed."),
		waves:         m.Counter("provnet_engine_waves_total", "Non-empty evaluation waves across all hosted engines."),
		firings:       m.Counter("provnet_engine_firings_total", "Rule firings (derivations) across all hosted engines."),
		retracted:     m.Counter("provnet_engine_retracted_total", "Tuples withdrawn by retraction cascades."),
		shadowEvicted: m.Counter("provnet_engine_shadow_evictions_total", "Prune-shadow rows evicted by the per-group cap."),
		deltasIn:      m.Counter("provnet_scheduler_deltas_in_total", "Inbound datagrams drained and applied by import phases."),
		deltasOut:     m.Counter("provnet_scheduler_deltas_out_total", "Outbound frames sealed and shipped by export phases."),
		viewRebuilt:   m.Counter("provnet_view_rows_rebuilt_total", "ReadView rows rendered from the engines at publish (whole-table rebuilds plus patched rows)."),
		viewShared:    m.Counter("provnet_view_tables_shared_total", "Tables a published ReadView shares unchanged with its predecessor."),
		roundSec:      m.Histogram("provnet_scheduler_round_seconds", "Wall time of one scheduler round.", obs.DefLatencyNanos, 1e-9),
		sealSec:       m.Histogram("provnet_crypto_seal_seconds", "Per-round time sealing outbound frames (signatures, MACs, handshakes).", obs.DefLatencyNanos, 1e-9),
		verifySec:     m.Histogram("provnet_crypto_verify_seconds", "Per-round time decoding and authenticating inbound datagrams.", obs.DefLatencyNanos, 1e-9),
		flushSec:      m.Histogram("provnet_store_flush_seconds", "Durable store seal+flush latency at quiescence points.", obs.DefLatencyNanos, 1e-9),
		shadowSize:    m.Gauge("provnet_engine_shadow_size", "Prune-shadow rows retained, all engines."),
		arenaHW:       m.Gauge("provnet_engine_arena_high_water", "High-water total capacity (elements) of the eval scratch arenas."),
		bddNodes:      m.Gauge("provnet_provenance_bdd_nodes", "Nodes of the condensed-provenance BDD managers (terminals included), all hosted nodes, sampled at quiescence."),
		exprMemo:      m.Gauge("provnet_provenance_expr_memo_entries", "Condensed-provenance expressions rendered and memoised, all hosted nodes, sampled at quiescence."),
		subs:          m.Gauge("provnet_driver_subscribers", "Live driver subscriptions (capped), sampled at quiescence."),
	}

	// Transport counters: the transports maintain these; export them as
	// scrape-time reads so the hot path is untouched.
	stats := func(pick func(s netsim.Stats) int64) func() int64 {
		return func() int64 { return pick(n.net.Stats()) }
	}
	m.CounterFunc("provnet_transport_messages_total", "Datagrams charged by the transport.", stats(func(s netsim.Stats) int64 { return s.Messages }))
	m.CounterFunc("provnet_transport_bytes_total", "Bytes charged by the transport (incl. framing overhead).", stats(func(s netsim.Stats) int64 { return s.Bytes }))
	m.CounterFunc("provnet_transport_dropped_total", "Sends to unknown nodes, dropped.", stats(func(s netsim.Stats) int64 { return s.DroppedMsg }))
	m.CounterFunc("provnet_transport_reconnects_total", "Connections re-established after a drop (TCP transport).", stats(func(s netsim.Stats) int64 { return s.Reconnects }))
	m.CounterFunc("provnet_transport_requeues_total", "Frames retained across a dropped connection and re-sent (TCP transport).", stats(func(s netsim.Stats) int64 { return s.Requeues }))
	m.CounterFunc("provnet_transport_parked_frames_total", "Inbound frames parked for not-yet-registered nodes (TCP transport).", stats(func(s netsim.Stats) int64 { return s.Parked }))
	m.CounterFunc("provnet_transport_ack_messages_total", "Ack frames shipped by the reliability layer (TCP transport).", stats(func(s netsim.Stats) int64 { return s.AckMessages }))
	m.CounterFunc("provnet_transport_ack_bytes_total", "Bytes of ack traffic shipped by the reliability layer.", stats(func(s netsim.Stats) int64 { return s.AckBytes }))
	m.CounterFunc("provnet_transport_retransmits_total", "Sequenced frames re-sent after a reconnect.", stats(func(s netsim.Stats) int64 { return s.Retransmits }))
	m.CounterFunc("provnet_transport_dup_dropped_total", "Duplicate sequenced frames suppressed by the receive window.", stats(func(s netsim.Stats) int64 { return s.DupDropped }))
	m.CounterFunc("provnet_transport_backpressured_total", "Sends that blocked on a full retransmit window.", stats(func(s netsim.Stats) int64 { return s.Backpressured }))
	m.GaugeFunc("provnet_transport_pending", "Undelivered inbound datagrams queued on the transport.", func() int64 {
		return int64(n.net.PendingCount())
	})
	m.GaugeFunc("provnet_transport_queue_depth", "Outbound frames accepted but not yet shipped, summed over peers.", func() int64 {
		total := 0
		for _, d := range n.net.QueueDepths() { //provlint:allow mapiter commutative integer sum; order cannot escape
			total += d
		}
		return int64(total)
	})

	// Crypto and admission counters (atomics on the Network).
	m.CounterFunc("provnet_crypto_signed_total", "Asymmetric signature operations performed.", func() int64 { return n.signed.Load() })
	m.CounterFunc("provnet_crypto_verified_total", "Signature verifications performed.", func() int64 { return n.checked.Load() })
	m.CounterFunc("provnet_crypto_handshakes_total", "Session handshake frames sealed.", func() int64 {
		if n.session == nil {
			return 0
		}
		hs, _, _, _ := n.session.SessionStats()
		return hs
	})
	m.CounterFunc("provnet_crypto_rejected_signatures_total", "Envelopes dropped for failed authentication.", func() int64 { return n.rejectedSig.Load() })

	// Store writer lag (queued + in-flight events; always 0 for MemStore).
	if n.store != nil {
		m.GaugeFunc("provnet_store_pending", "Store events queued or in flight behind the durable writer.", func() int64 {
			return int64(n.store.Pending())
		})
	}
	return nm
}

// roundStart resets the per-round crypto accumulators. Called at the
// top of each round under the run lock.
func (nm *netMetrics) roundStart() {
	if nm == nil {
		return
	}
	nm.sealNanos.Store(0)
	nm.verifyNanos.Store(0)
}

// roundEnd samples the engines, updates counters/histograms, and
// appends one flight record. kind is "round" or "retract". Runs at
// round granularity under the run lock: the map allocations in the
// flight record are deliberate scrape-path cost, not hot-path cost.
func (nm *netMetrics) roundEnd(n *Network, kind string, start time.Time) {
	if nm == nil {
		return
	}
	wall := time.Since(start).Nanoseconds() //provlint:allow detpath metrics round timing, outside the deterministic state
	var sum engine.Stats
	var evictions, shadowSize, arenaHW int64
	for _, name := range n.order {
		e := n.nodes[name].Engine
		sum.Waves += e.Stats.Waves
		sum.Derivations += e.Stats.Derivations
		sum.Retracted += e.Stats.Retracted
		evictions += e.ShadowEvictions()
		shadowSize += int64(e.ShadowSize())
		arenaHW += e.ArenaHighWater()
	}
	dWaves := sum.Waves - nm.prev.Waves
	dFirings := sum.Derivations - nm.prev.Derivations
	dRetracted := sum.Retracted - nm.prev.Retracted
	dEvicted := evictions - nm.prevEvictions
	nm.prev, nm.prevEvictions = sum, evictions

	in, out := nm.deltasIn.Value(), nm.deltasOut.Value()
	dIn, dOut := in-nm.prevIn, out-nm.prevOut
	nm.prevIn, nm.prevOut = in, out

	if kind == "retract" {
		nm.retractRounds.Inc()
	} else {
		nm.rounds.Inc()
	}
	nm.waves.Add(dWaves)
	nm.firings.Add(dFirings)
	nm.retracted.Add(dRetracted)
	nm.shadowEvicted.Add(dEvicted)
	nm.roundSec.Observe(wall)
	sealNs := nm.sealNanos.Load()
	verifyNs := nm.verifyNanos.Load()
	nm.sealSec.Observe(sealNs)
	nm.verifySec.Observe(verifyNs)
	nm.shadowSize.Set(shadowSize)
	nm.arenaHW.SetMax(arenaHW)

	rec := obs.RoundRecord{
		Kind:             kind,
		StartNs:          start.UnixNano(),
		WallNs:           wall,
		Waves:            dWaves,
		DeltasIn:         dIn,
		DeltasOut:        dOut,
		Firings:          dFirings,
		Retracted:        dRetracted,
		SealNs:           sealNs,
		VerifyNs:         verifyNs,
		TransportPending: n.net.PendingCount(),
		PeerQueues:       n.net.QueueDepths(),
	}
	if n.store != nil {
		rec.StoreLag = n.store.Pending()
	}
	nm.m.FlightRecorder().Record(rec)
}

// observeQuiesce records one quiescence decision (view publish + store
// seal) and its wall time, and samples the provenance trackers' sizes —
// BDD managers and their expression memos only grow — and the driver's
// live subscriptions.
func (nm *netMetrics) observeQuiesce(n *Network, start time.Time) {
	if nm == nil {
		return
	}
	nm.quiesces.Inc()
	var bddNodes, exprMemo int64
	for _, name := range n.order {
		tr := n.nodes[name].Tracker
		if mgr := tr.Manager(); mgr != nil {
			bddNodes += int64(mgr.NumNodes())
		}
		exprMemo += int64(tr.ExprMemoSize())
	}
	nm.bddNodes.Set(bddNodes)
	nm.exprMemo.Set(exprMemo)
	nm.subs.Set(int64(n.drv.Subscribers()))
	rec := obs.RoundRecord{
		Kind:             "quiesce",
		StartNs:          start.UnixNano(),
		WallNs:           time.Since(start).Nanoseconds(), //provlint:allow detpath metrics quiesce timing, outside the deterministic state
		TransportPending: n.net.PendingCount(),
	}
	if n.store != nil {
		rec.StoreLag = n.store.Pending()
	}
	nm.m.FlightRecorder().Record(rec)
}

// Metrics returns the registry the network records into, or nil when
// observability is disabled. The nil-safe obs instruments make the
// chain n.Metrics().Counter(...).Inc() a no-op when off, which is how
// call sites outside core (cmd/provnet, queryapi) attach counters without
// their own nil checks.
func (n *Network) Metrics() *obs.Metrics {
	if n.nm == nil {
		return nil
	}
	return n.nm.m
}
