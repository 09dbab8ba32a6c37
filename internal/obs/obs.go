// Package obs is provnet's dependency-free observability kit: an
// atomic metrics registry rendered in the Prometheus text exposition
// format, and a bounded flight recorder of per-round events
// (flight.go).
//
// Two properties shape the design:
//
//   - Zero cost when disabled. Every instrument method is safe on a
//     nil receiver, so instrumented code holds plain *Counter /
//     *Gauge / *Histogram fields and never branches on "is metrics
//     on" — a nil pointer *is* the no-op implementation. With
//     Config.Metrics == nil nothing is ever allocated or touched;
//     the allocation budget (internal/benchwork,
//     TestHotPathAllocBudget) enforces this.
//
//   - Allocation-free on the hot path when enabled. Counter.Add,
//     Gauge.Set/SetMax, and Histogram.Observe are atomic ops on
//     pre-sized arrays; no maps, no interfaces, no boxing. All
//     formatting cost is paid at scrape time in WritePrometheus.
//
// The registry deliberately implements only what provnet needs —
// counters, gauges, scrape-time gauge/counter funcs, and fixed-bucket
// histograms with a single optional label pair — not the full
// Prometheus data model.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing int64. Methods on a nil
// receiver are no-ops, so disabled metrics cost one nil check.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n should be non-negative; the renderer does not check).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is a settable int64. Nil-receiver methods are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger — high-water-mark
// semantics (arena sizes, queue peaks).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A Histogram counts observations into fixed cumulative buckets. The
// stored unit is int64 (typically nanoseconds or tuple counts); Scale
// converts to the exposition unit at render time (1e-9 turns
// nanoseconds into the conventional *_seconds). Observe is a linear
// scan over ≤ ~20 bounds plus two atomic adds — no allocation.
type Histogram struct {
	bounds  []int64 // upper bounds, ascending; +Inf implicit
	scale   float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value in the histogram's native unit.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// DefLatencyNanos is the default latency bucket ladder: 50µs to 10s,
// roughly 1-2.5-5 per decade, in nanoseconds (render with Scale 1e-9).
var DefLatencyNanos = []int64{
	50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// entry is one registered series: a family name plus an optional
// single label pair (the only label shape provnet needs).
type entry struct {
	family string
	lkey   string
	lval   string
	help   string
	kind   kind
	c      *Counter
	g      *Gauge
	fn     func() int64
	h      *Histogram
}

func (e *entry) sortKey() string { return e.family + "\x00" + e.lkey + "\x00" + e.lval }

// Metrics is the registry. The zero value is not usable; call New.
// A nil *Metrics is the disabled registry: every lookup returns nil,
// which every instrument treats as a no-op.
type Metrics struct {
	mu      sync.Mutex
	entries map[string]*entry

	// Flight is the round/wave flight recorder, always present on a
	// live registry so recording sites need no second nil check
	// beyond the registry itself.
	Flight *Flight
}

// FlightRecorder returns the registry's flight recorder, nil on a nil
// registry — the chained form m.FlightRecorder().Record(...) is a
// no-op when metrics are disabled, like every other instrument path.
func (m *Metrics) FlightRecorder() *Flight {
	if m == nil {
		return nil
	}
	return m.Flight
}

// New returns an empty registry with a flight recorder of the default
// capacity.
func New() *Metrics {
	return &Metrics{
		entries: make(map[string]*entry),
		Flight:  NewFlight(DefFlightCap),
	}
}

// lookup get-or-creates the entry under the registry lock; init runs
// inside the lock on first creation only, so instrument construction
// is race-free against concurrent callers of the same name.
func (m *Metrics) lookup(family, lkey, lval, help string, k kind, init func(*entry)) *entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := family + "\x00" + lkey + "\x00" + lval
	if e, ok := m.entries[key]; ok {
		return e
	}
	e := &entry{family: family, lkey: lkey, lval: lval, help: help, kind: k}
	if init != nil {
		init(e)
	}
	m.entries[key] = e
	return e
}

// Counter returns (creating on first use) the counter named family.
// On a nil registry it returns nil, the no-op counter.
func (m *Metrics) Counter(family, help string) *Counter {
	return m.LabeledCounter(family, help, "", "")
}

// LabeledCounter is Counter with a single label pair.
func (m *Metrics) LabeledCounter(family, help, lkey, lval string) *Counter {
	if m == nil {
		return nil
	}
	return m.lookup(family, lkey, lval, help, kindCounter, func(e *entry) { e.c = &Counter{} }).c
}

// Gauge returns (creating on first use) the gauge named family.
func (m *Metrics) Gauge(family, help string) *Gauge {
	if m == nil {
		return nil
	}
	return m.lookup(family, "", "", help, kindGauge, func(e *entry) { e.g = &Gauge{} }).g
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — for monotonic totals already maintained elsewhere (transport
// byte counts). Repeated registration under one name replaces fn.
func (m *Metrics) CounterFunc(family, help string, fn func() int64) {
	if m == nil {
		return
	}
	m.lookup(family, "", "", help, kindCounterFunc, func(e *entry) { e.fn = fn })
}

// GaugeFunc registers a gauge read by fn at scrape time — for
// instantaneous values owned elsewhere (queue depths, pending counts).
func (m *Metrics) GaugeFunc(family, help string, fn func() int64) {
	if m == nil {
		return
	}
	m.lookup(family, "", "", help, kindGaugeFunc, func(e *entry) { e.fn = fn })
}

// Histogram returns (creating on first use) a histogram with the
// given ascending upper bounds in its native unit; scale converts to
// the exposition unit at render time (use 1e-9 for nanosecond
// observations rendered as seconds, 1 for plain counts).
func (m *Metrics) Histogram(family, help string, bounds []int64, scale float64) *Histogram {
	return m.LabeledHistogram(family, help, "", "", bounds, scale)
}

// LabeledHistogram is Histogram with a single label pair.
func (m *Metrics) LabeledHistogram(family, help, lkey, lval string, bounds []int64, scale float64) *Histogram {
	if m == nil {
		return nil
	}
	return m.lookup(family, lkey, lval, help, kindHistogram, func(e *entry) {
		e.h = &Histogram{
			bounds:  bounds,
			scale:   scale,
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
	}).h
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4), sorted by name so output is
// stable. HELP/TYPE are emitted once per family.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	es := make([]*entry, 0, len(m.entries))
	for _, e := range m.entries {
		es = append(es, e)
	}
	m.mu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].sortKey() < es[j].sortKey() })

	lastFamily := ""
	for _, e := range es {
		if e.family != lastFamily {
			typ := "counter"
			switch e.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.family, e.help, e.family, typ); err != nil {
				return err
			}
			lastFamily = e.family
		}
		if err := e.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (e *entry) labels(extra string) string {
	switch {
	case e.lkey == "" && extra == "":
		return ""
	case e.lkey == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + e.lkey + "=" + strconv.Quote(e.lval) + "}"
	default:
		return "{" + e.lkey + "=" + strconv.Quote(e.lval) + "," + extra + "}"
	}
}

func (e *entry) write(w io.Writer) error {
	switch e.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", e.family, e.labels(""), e.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", e.family, e.labels(""), e.g.Value())
		return err
	case kindCounterFunc, kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %d\n", e.family, e.labels(""), e.fn())
		return err
	case kindHistogram:
		h := e.h
		cum := int64(0)
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatFloat(float64(h.bounds[i]) * h.scale)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.family, e.labels(`le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", e.family, e.labels(""), formatFloat(float64(h.sum.Load())*h.scale)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", e.family, e.labels(""), h.count.Load())
		return err
	}
	return nil
}

// formatFloat renders like Prometheus clients do: shortest
// round-trippable decimal.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
