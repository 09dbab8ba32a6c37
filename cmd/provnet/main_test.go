package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"provnet"
)

// mainArgsEnv carries the provnet argv into a re-executed test binary:
// TestMain dispatches to main() when it is set, which lets the test
// spawn real provnet OS processes without building the command first.
const mainArgsEnv = "PROVNET_MAIN_ARGS"

const argSep = "\x1f"

func TestMain(m *testing.M) {
	os.Setenv("GODEBUG", "rsa1024min=0") // 512-bit test keys, like the package TestMains
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"provnet"}, strings.Split(args, argSep)...)
		flag.CommandLine = flag.NewFlagSet("provnet", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runProvnet runs one provnet process (the re-executed test binary) and
// returns its stdout.
func runProvnet(ctx context.Context, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, argSep))
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out), fmt.Errorf("provnet %v: %w\nstderr: %s", args, err, ee.Stderr)
		}
		return string(out), fmt.Errorf("provnet %v: %w", args, err)
	}
	return string(out), nil
}

// tableLines extracts the printed table rows (they are the only
// tab-separated lines), sorted for set comparison across processes.
func tableLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "\t") {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return lines
}

// freeLoopbackAddrs reserves n distinct loopback TCP addresses.
func freeLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestHTTPTracebackGolden is the api-smoke pin, mirrored by the CI job of
// the same name: a provnet process serving -http must answer the
// /v1/traceback query with exactly the committed golden JSON. The fixture
// pins the schema (v1), the derivation tree, and the query-cost stats;
// regenerate it with the command from .github/workflows/ci.yml if the
// provenance encoding deliberately changes.
func TestHTTPTracebackGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns an OS process")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "traceback_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	args := []string{
		"-program", filepath.Join("testdata", "reachable.ndl"),
		"-topo", "line:3", "-prov", "distributed",
		"-sequential", "-http", "127.0.0.1:0",
	}
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, argSep))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Scrape the readiness line for the bound address.
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if after, ok := strings.CutPrefix(sc.Text(), "serving query API on "); ok {
			base = strings.TrimSuffix(after, "/v1")
			break
		}
	}
	if base == "" {
		t.Fatalf("no readiness line: %v", sc.Err())
	}

	resp, err := http.Get(base + "/v1/traceback?node=n0&tuple=" + url.QueryEscape("reachable(n0, n2)"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if string(body) != string(golden) {
		t.Errorf("traceback diverges from golden fixture\n--- got ---\n%s\n--- want ---\n%s", body, golden)
	}
}

// TestStoreFlagPersists runs provnet with -store and then recovers the
// log offline: the replayed live state must list exactly the tables the
// process printed.
func TestStoreFlagPersists(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns an OS process")
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := runProvnet(ctx,
		"-program", filepath.Join("testdata", "reachable.ndl"),
		"-topo", "line:3", "-prov", "distributed",
		"-sequential", "-store", dir)
	if err != nil {
		t.Fatal(err)
	}
	want := tableLines(out)
	state, stats, err := provnet.RecoverStoreLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 || stats.TornBytes != 0 {
		t.Fatalf("unexpected recovery stats: %+v", stats)
	}
	var got []string
	for _, l := range strings.Split(strings.TrimSuffix(state.LiveDump(), "\n"), "\n") {
		got = append(got, strings.TrimSuffix(l, "\t"))
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("recovered store diverges from printed tables\n--- store (%d) ---\n%s\n--- tables (%d) ---\n%s",
			len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
	}
}

// TestCrashRestartReconverges is the fault-tolerance pin for the
// distributed runtime, driven across three fault seeds: three provnet
// processes run the bestPath workload over loopback TCP under a seeded
// fault schedule (delays and duplicates on every link), one non-root
// process is SIGKILLed mid-run and restarted cold on the same address.
// The reliability layer reconnects, the restart notification makes the
// survivors re-announce their soft state (export-log resupply), and the
// credit termination detector — whose ring root survives the crash —
// must still declare only the true fixpoint: the union of the final
// tables, condensed provenance annotations included, equals the
// single-process reference bit for bit.
func TestCrashRestartReconverges(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	dir := t.TempDir()
	prog := filepath.Join(dir, "bestpath.ndl")
	if err := os.WriteFile(prog, []byte(provnet.BestPath), 0o644); err != nil {
		t.Fatal(err)
	}
	// A unidirectional ring has a unique path between every pair, so the
	// full tables (not just costs) are reproducible under frame
	// reordering and duplication.
	nodes := []string{"n0", "n1", "n2"}
	common := []string{
		"-program", prog, "-topo", "ring:3",
		"-auth", "rsa", "-keybits", "512",
		"-prov", "condensed", "-annotate",
	}

	refCtx, refCancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer refCancel()
	refOut, err := runProvnet(refCtx, common...)
	if err != nil {
		t.Fatal(err)
	}
	want := tableLines(refOut)
	if len(want) == 0 {
		t.Fatalf("reference run printed no tables:\n%s", refOut)
	}

	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
			defer cancel()
			addrs := freeLoopbackAddrs(t, len(nodes))
			procArgs := func(i int) []string {
				var peers []string
				for j, other := range nodes {
					if j != i {
						peers = append(peers, other+"="+addrs[j])
					}
				}
				// Delay and duplicate but never drop: the fault schedule
				// wraps the transport above the retransmit layer, so a
				// dropped frame there would be a genuine application loss.
				return append(append([]string{}, common...),
					"-listen", addrs[i], "-self", nodes[i],
					"-peers", strings.Join(peers, ","),
					"-fault", "delay=0.4,dup=0.05,delayops=200",
					"-faultseed", strconv.FormatInt(seed, 10))
			}

			outs := make([]string, len(nodes))
			errs := make([]error, len(nodes))
			var wg sync.WaitGroup
			for _, i := range []int{0, 2} {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					outs[i], errs[i] = runProvnet(ctx, procArgs(i)...)
				}(i)
			}

			// The victim is n1, not n0: the ring root must survive so the
			// wave protocol keeps a root to relaunch timed-out waves. Kill
			// it mid-run — 512-bit keygen, RSA handshakes, and the fault
			// delays keep the run alive well past the kill point.
			victim := exec.CommandContext(ctx, os.Args[0])
			victim.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(procArgs(1), argSep))
			if err := victim.Start(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(400 * time.Millisecond)
			victim.Process.Kill()
			victim.Wait()

			// Cold restart on the same address: no state survives in the
			// process, everything must come back through base facts and
			// the survivors' resupply.
			outs[1], errs[1] = runProvnet(ctx, procArgs(1)...)
			wg.Wait()

			var got []string
			for i := range nodes {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				got = append(got, tableLines(outs[i])...)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("tables after crash+restart differ\n--- reference (%d rows) ---\n%s\n--- survivors+restart (%d rows) ---\n%s",
					len(want), strings.Join(want, "\n"), len(got), strings.Join(got, "\n"))
			}
		})
	}
}

// TestMultiprocessMatchesSingleProcess is the acceptance pin for the TCP
// transport: three OS processes, one node each, over loopback TCP must
// produce exactly the tables — condensed provenance annotations
// included — of the single-process netsim run on the same topology,
// under both per-round RSA and the session handshake transport.
func TestMultiprocessMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	dir := t.TempDir()
	prog := filepath.Join(dir, "bestpath.ndl")
	if err := os.WriteFile(prog, []byte(provnet.BestPath), 0o644); err != nil {
		t.Fatal(err)
	}
	nodes := []string{"n0", "n1", "n2"}
	common := []string{
		"-program", prog, "-topo", "ring:3",
		"-prov", "condensed", "-annotate", "-keybits", "512",
	}
	for _, scheme := range []string{"rsa", "session"} {
		t.Run(scheme, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			args := append(append([]string{}, common...), "-auth", scheme)

			refOut, err := runProvnet(ctx, args...)
			if err != nil {
				t.Fatal(err)
			}
			want := tableLines(refOut)
			if len(want) == 0 {
				t.Fatalf("reference run printed no tables:\n%s", refOut)
			}

			addrs := freeLoopbackAddrs(t, len(nodes))
			outs := make([]string, len(nodes))
			errs := make([]error, len(nodes))
			var wg sync.WaitGroup
			for i, self := range nodes {
				var peers []string
				for j, other := range nodes {
					if j != i {
						peers = append(peers, other+"="+addrs[j])
					}
				}
				procArgs := append(append([]string{}, args...),
					"-listen", addrs[i], "-self", self,
					"-peers", strings.Join(peers, ","))
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					outs[i], errs[i] = runProvnet(ctx, procArgs...)
				}(i)
			}
			wg.Wait()
			var got []string
			for i := range nodes {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				got = append(got, tableLines(outs[i])...)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("tables differ\n--- single-process (%d rows) ---\n%s\n--- 3 processes (%d rows) ---\n%s",
					len(want), strings.Join(want, "\n"), len(got), strings.Join(got, "\n"))
			}
		})
	}
}
