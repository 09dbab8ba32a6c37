package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"provnet"
)

// run accumulates one pass over a workload's episodes. The zero tracer
// (nil) is the untraced pass every end-to-end metric comes from.
type run struct {
	w    workload
	seed int64
	dir  string  // scratch directory inside the checkout
	tr   *tracer // nil = untraced
	// parent is the span the episodes hang under (0 = the run's root).
	parent span
	// light marks the accumulator of a goroutine that runs beside a timed
	// window: it takes wall time only, never a stop-the-world MemStats.
	light bool

	setupS, opMs, cutMs, restoreMs []float64
	ops, failed                    int
	notes                          []string // first few check failures

	netMsgs, netBytes, httpBytes int64
	storeEvents, storeBytes      int64
	signed, macs, retracted      int64
	late, miss, raced            int

	// Summed over the timed windows.
	mallocs   uint64
	cpu, wall time.Duration

	// Traced pass only: the current network's registry and what its
	// flight recorder has yielded so far.
	reg              *provnet.Metrics
	flightSeq        int64
	roundMs          []float64
	sealNs, verifyNs int64
	dep0, dep1       int64 // dependency-index size after set-up and at the end
}

type window struct {
	start   time.Time
	mallocs uint64
	cpu     time.Duration
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// open starts a timed window. The clock is read last and, in close,
// first, so the bookkeeping stays outside the interval.
func (r *run) open() window {
	if r.light {
		return window{start: time.Now()}
	}
	w := window{mallocs: mallocs(), cpu: cpuTime()}
	w.start = time.Now()
	return w
}

func (r *run) close(w window) time.Duration {
	d := time.Since(w.start)
	if !r.light {
		r.cpu += cpuTime() - w.cpu
		r.mallocs += mallocs() - w.mallocs
		r.wall += d
	}
	return d
}

const maxNotes = 5

func (r *run) check(err error) {
	if err == nil {
		return
	}
	r.failed++
	if len(r.notes) < maxNotes {
		r.notes = append(r.notes, err.Error())
	}
}

// traffic charges the transport counters since the given baseline.
func (r *run) traffic(net *provnet.Network, msgs0, bytes0 int64) {
	msgs, bytes := transportTotals(net)
	r.netMsgs += msgs - msgs0
	r.netBytes += bytes - bytes0
}

// counters charges the cumulative crypto and retraction counters of a
// network's final report, less those of base (nil = since construction).
func (r *run) counters(base, rep *provnet.Report) {
	if base == nil {
		base = &provnet.Report{}
	}
	r.signed += rep.Signed - base.Signed
	r.macs += rep.SealedMAC - base.SealedMAC
	r.retracted += rep.Retracted - base.Retracted
}

// rounds turns the flight records written since the last call into round
// spans under parent, with seal and verify children. Untraced: no-op.
func (r *run) rounds(parent span) {
	if r.reg == nil {
		return
	}
	for _, rec := range r.reg.FlightRecorder().Snapshot() {
		if rec.Seq <= r.flightSeq {
			continue
		}
		r.flightSeq = rec.Seq
		sp := r.tr.add(rec.Kind, parent, rec.StartNs, rec.WallNs)
		if rec.Kind == "quiesce" {
			continue
		}
		r.roundMs = append(r.roundMs, float64(rec.WallNs)/1e6)
		r.sealNs += rec.SealNs
		r.verifyNs += rec.VerifyNs
		// Seal and verify times are summed over the nodes of the round,
		// which run in parallel: CPU spent, not a wall interval.
		r.tr.add("seal", sp, rec.StartNs, rec.SealNs)
		r.tr.add("verify", sp, rec.StartNs, rec.VerifyNs)
	}
}

const depGauge = "provnet_engine_dep_index_size"

func (r *run) depIndexSize() int64 {
	if r.reg == nil {
		return 0
	}
	return r.reg.Gauge(depGauge, "").Value()
}

// merge folds in what a side accumulator saw.
func (r *run) merge(side *run) {
	r.cutMs = append(r.cutMs, side.cutMs...)
	r.restoreMs = append(r.restoreMs, side.restoreMs...)
	r.roundMs = append(r.roundMs, side.roundMs...)
	r.sealNs += side.sealNs
	r.verifyNs += side.verifyNs
	r.failed += side.failed
	for _, n := range side.notes {
		if len(r.notes) < maxNotes {
			r.notes = append(r.notes, n)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of vs (linear interpolation, the
// "inclusive" method); 0 for an empty sample.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// tail returns the highest percentile that still has at least ten
// samples beyond it (the maximum, below twenty samples).
func tail(vs []float64) float64 {
	if len(vs) < 20 {
		return quantile(vs, 1)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[len(s)-11]
}

func per(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
