// Command bench is the repository's one benchmark: four fixed workloads
// over the paths that repeat, five end-to-end metrics each, and the layer
// metrics that explain them. See README.md here and BENCHMARK.json at the
// repository root.
//
//	go run ./bench -workload fig3-ndlog -seed 1            # end-to-end metrics
//	go run ./bench -workload fig3-ndlog -seed 1 -trace 1   # layer metrics + span file
//	go run ./bench -workload all                           # the set, one process each
//	go run ./bench -aa                                     # repeatability check
//	go run ./bench -probe tcp3                             # ungated TCP termination probe
//
// The last line of standard output is one JSON object; everything else
// goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the line the driver reads.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// scratchRoot holds everything a run writes; it is inside the checkout
// and named in .gitignore.
const scratchRoot = ".bench_out"

// ballastBytes is the garbage the collector lets pile up between cycles.
const ballastBytes = 64 << 20

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or \"all\" to run each in its own process")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same topologies, ops and queries")
	seconds := fs.Int("seconds", baseSeconds, "run length the op counts are sized for (counts are fixed by it, durations are not)")
	trace := fs.Int("trace", 0, "1 = print the layer metrics from a traced quarter-size rerun and write "+scratchRoot+"/spans-<workload>.json")
	aa := fs.Bool("aa", false, "run the set twice in alternating order and fail if any medians differ by more than the bound")
	probe := fs.String("probe", "", "ungated probe to run instead of a workload (tcp3)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *probe == "tcp3":
		res, err := probeTCP3(context.Background(), *seed)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, "bench: tcp3: ungated probe; the traffic crossed the host's loopback interface (127.0.0.1), not a real link")
		return emit(stdout, stderr, res)
	case *probe != "":
		return fail(fmt.Errorf("unknown probe %q", *probe))
	case *aa:
		if err := runAA(stderr, *seed); err != nil {
			return fail(err)
		}
		return 0
	case *name == "all":
		if err := runAll(stdout, stderr, *seed, *seconds); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	div := 1
	if *trace == 1 {
		div = 4 // the traced rerun is a quarter of the size
	}
	res, err := measure(context.Background(), w.sized(*seconds, div), *seed, *trace == 1, stderr)
	if err != nil {
		return fail(err)
	}
	return emit(stdout, stderr, res)
}

func emit(stdout, stderr io.Writer, res *result) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// spanFile is where a traced run of w leaves its spans.
func spanFile(w workload) string { return filepath.Join(scratchRoot, "spans-"+w.name+".json") }

// scratchDir makes a fresh directory under scratchRoot.
func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchRoot, prefix)
}

// pass runs one sized workload, traced or not, in a scratch directory of
// its own; its episode spans hang under parent.
func pass(ctx context.Context, w workload, seed int64, tr *tracer, parent span) (*run, error) {
	dir, err := scratchDir("run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{w: w, seed: seed, dir: dir, tr: tr, parent: parent}
	if err := r.execute(ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// measure runs one sized workload in this process: untraced for the
// end-to-end metrics, or without tracing, with it and on every processor,
// followed by the layer probes, for the per-layer metrics and the span file.
func measure(ctx context.Context, w workload, seed int64, traced bool, stderr io.Writer) (*result, error) {
	// One processor: on a shared host the second core comes and goes, and
	// with it whatever ran there — the concurrent collector, the parallel
	// scheduler's other worker (README: "What makes it repeat").
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The ballast is never touched, so it costs no memory; it counts as
	// live heap, so the collector waits for that much new garbage and not
	// for the few MiB a fresh network's heap would allow it.
	ballast := make([]byte, ballastBytes)
	defer runtime.KeepAlive(ballast)

	res := &result{Metrics: metrics{}}
	report := func(rs ...*run) {
		for _, r := range rs {
			res.Attempted += r.ops
			res.Failed += r.failed
			for _, n := range r.notes {
				fmt.Fprintf(stderr, "bench: %s: FAILED CHECK: %s\n", r.w.name, n)
			}
		}
		res.Correct = res.Failed == 0
	}
	if !traced {
		r, err := pass(ctx, w, seed, nil, 0)
		if err != nil {
			return nil, err
		}
		if err := r.endToEnd(res.Metrics); err != nil {
			return nil, err
		}
		report(r)
		return res, nil
	}

	// Once without and once with the registry and the span recorder
	// attached; the difference between the two is the tracing overhead.
	calib0 := calibrate()
	plain, err := pass(ctx, w, seed, nil, 0)
	if err != nil {
		return nil, err
	}
	tr := newTracer("run:" + w.name)
	withTrace, err := pass(ctx, w, seed, tr, 0)
	if err != nil {
		return nil, err
	}
	// And once on every processor the machine has: what the parallel
	// scheduler buys while the host grants the cores. Not gated.
	runtime.GOMAXPROCS(runtime.NumCPU())
	wide, err := pass(ctx, w, seed, nil, 0)
	runtime.GOMAXPROCS(1)
	if err != nil {
		return nil, err
	}
	probed, err := layerProbes(ctx, w, seed, plain, withTrace, wide, tr, res.Metrics)
	if err != nil {
		return nil, err
	}
	res.Metrics.set("host.calib_ms", "ms", calib0)
	res.Metrics.set("host.calib_end_ms", "ms", calibrate())
	spanPath := spanFile(w)
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "bench: %s: %d spans written to %s\n", w.name, len(tr.spans), spanPath)
	report(plain, withTrace, wide, probed)
	return res, nil
}

// endToEnd fills in the five metrics every workload reports.
func (r *run) endToEnd(m metrics) error {
	mem, err := peakRSSMiB()
	if err != nil {
		return err
	}
	wire := r.netBytes
	if r.w.kind == query {
		wire = r.httpBytes // what the querying user receives
	}
	m.set("setup_s", "s", median(r.setupS))
	m.set("op_ms_p50", "ms", median(r.opMs))
	m.set("wire_kb_per_op", "KiB", per(float64(wire)/1024, r.ops))
	m.set("allocs_per_op", "1", per(float64(r.mallocs), r.ops))
	m.set("mem_mb", "MiB", mem)
	return nil
}

// child re-executes this binary with the given flags and decodes the
// last line it printed. Each workload gets a process of its own so that
// peak memory is per workload.
func child(stderr io.Writer, args ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return nil, errors.Join(fmt.Errorf("bench %s: no result line", strings.Join(args, " ")), err, jerr)
	}
	if err != nil {
		return &res, fmt.Errorf("bench %s: %w", strings.Join(args, " "), err)
	}
	return &res, nil
}

func workloadArgs(name string, seed int64, seconds int) []string {
	return []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
}

// runAll runs the set and prints, after the per-workload lines, the two
// figures the paper's claim is made of.
func runAll(stdout, stderr io.Writer, seed int64, seconds int) error {
	got := make(map[string]metrics)
	var failed error
	for _, w := range workloads {
		res, err := child(stderr, workloadArgs(w.name, seed, seconds)...)
		if res == nil {
			return err
		}
		failed = errors.Join(failed, err)
		got[w.name] = res.Metrics
		line, err := json.Marshal(map[string]any{"workload": w.name, "result": res})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
	}
	ratio := func(name string) float64 {
		return got["fig3-sendlogprov"][name].Value / got["fig3-ndlog"][name].Value
	}
	summary := metrics{}
	summary.set("fig3.overhead_x", "x", ratio("op_ms_p50"))
	summary.set("fig4.overhead_x", "x", ratio("wire_kb_per_op"))
	line, err := json.Marshal(map[string]any{"derived": summary})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return failed
}
