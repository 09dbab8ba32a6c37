package queryapi

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"provnet/internal/core"
	"provnet/internal/data"
	"provnet/internal/obs"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// testServer assembles a converged BestPath network over a 4-node line
// and serves its query API from an httptest server.
func testServer(t *testing.T, mode provenance.Mode) (*core.Network, *httptest.Server) {
	t.Helper()
	cfg := core.Config{Source: core.BestPath, Graph: topo.Line(4), Prov: mode}
	n, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(n).Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { n.Close() })
	return n, srv
}

func get(t *testing.T, url string, wantStatus int) *QueryResult {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var res QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	if res.V != SchemaVersion {
		t.Fatalf("GET %s: schema v%d, want v%d", url, res.V, SchemaVersion)
	}
	return &res
}

func TestTablesEndpoint(t *testing.T) {
	n, srv := testServer(t, provenance.ModeDistributed)
	res := get(t, srv.URL+"/v1/tables/bestPath?node=n0", http.StatusOK)
	if res.Kind != "tables" || len(res.Tables) != 1 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Snapshot == 0 {
		t.Error("converged network should serve a non-zero snapshot")
	}
	want := n.Tuples("n0", "bestPath")
	got := res.Tables[0].Rows
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i, row := range got {
		if row.Tuple != want[i].String() {
			t.Errorf("row %d = %q, want %q", i, row.Tuple, want[i])
		}
	}

	// All nodes when ?node= is omitted.
	all := get(t, srv.URL+"/v1/tables/bestPath", http.StatusOK)
	if len(all.Tables) != 4 {
		t.Errorf("all-node query returned %d tables, want 4", len(all.Tables))
	}
	// Unknown node is a schema-shaped 404.
	bad := get(t, srv.URL+"/v1/tables/bestPath?node=nope", http.StatusNotFound)
	if bad.Error == "" {
		t.Error("404 without error field")
	}
}

func TestBestPathEndpoint(t *testing.T) {
	_, srv := testServer(t, provenance.ModeDistributed)
	res := get(t, srv.URL+"/v1/bestpath?from=n0&dest=n3", http.StatusOK)
	if res.Kind != "bestpath" || len(res.Paths) != 1 {
		t.Fatalf("bad result: %+v", res)
	}
	p := res.Paths[0]
	if p.From != "n0" || p.Dest != "n3" || p.Cost != 3 {
		t.Errorf("path = %+v, want n0→n3 cost 3", p)
	}
	if want := []string{"n0", "n1", "n2", "n3"}; strings.Join(p.Path, ",") != strings.Join(want, ",") {
		t.Errorf("path hops = %v, want %v", p.Path, want)
	}
	// Unfiltered: every (src,dest) pair of the line.
	all := get(t, srv.URL+"/v1/bestpath", http.StatusOK)
	if len(all.Paths) != 12 {
		t.Errorf("full sweep returned %d paths, want 12", len(all.Paths))
	}
}

func TestTracebackEndpointDistributed(t *testing.T) {
	n, srv := testServer(t, provenance.ModeDistributed)
	target := n.Tuples("n0", "bestPath")[0]
	res := get(t, srv.URL+"/v1/traceback?node=n0&tuple="+queryEscape(target.String()), http.StatusOK)
	if res.Kind != "traceback" || res.Traceback == nil {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Traceback.Tuple != target.String() {
		t.Errorf("root = %q, want %q", res.Traceback.Tuple, target)
	}
	if res.Stats == nil || res.Stats.Entries == 0 {
		t.Errorf("missing query stats: %+v", res.Stats)
	}
	// The JSON tree must mirror the native reconstruction.
	tree, _, err := n.DerivationTree("n0", target, provenance.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	nat, _ := json.Marshal(FromTree(tree))
	api, _ := json.Marshal(res.Traceback)
	if string(nat) != string(api) {
		t.Errorf("API tree diverges from native reconstruction\napi: %s\nnative: %s", api, nat)
	}

	// Bad tuple text and missing params are 400s.
	if res := get(t, srv.URL+"/v1/traceback?node=n0&tuple=oops", http.StatusBadRequest); res.Error == "" {
		t.Error("400 without error field")
	}
	if res := get(t, srv.URL+"/v1/traceback", http.StatusBadRequest); res.Error == "" {
		t.Error("400 without error field")
	}
}

func TestTracebackEndpointCondensed(t *testing.T) {
	n, srv := testServer(t, provenance.ModeCondensed)
	target := n.Tuples("n2", "bestPath")[0]
	res := get(t, srv.URL+"/v1/traceback?node=n2&tuple="+queryEscape(target.String()), http.StatusOK)
	if res.Condensed == "" || res.Traceback != nil {
		t.Fatalf("condensed query: %+v", res)
	}
	if want := n.CondensedExpr("n2", target); res.Condensed != want {
		t.Errorf("condensed = %q, want %q", res.Condensed, want)
	}
	// A tuple the snapshot does not hold is a 404.
	miss := get(t, srv.URL+"/v1/traceback?node=n2&tuple="+queryEscape("bestPath(x, y, [x], 1)"), http.StatusNotFound)
	if miss.Error == "" {
		t.Error("404 without error field")
	}
}

func TestSubscribeSSE(t *testing.T) {
	cfg := core.Config{Source: core.BestPath, Graph: topo.Line(3), Prov: provenance.ModeDistributed}
	n, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	d := n.Driver()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(n).Handler())
	defer srv.Close()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/subscribe?node=n0&pred=marker", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	if err := d.Inject("n0", data.NewTuple("marker", data.Str("n0"), data.Str("hello"))); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var payload string
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			payload = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if payload == "" {
		t.Fatalf("no SSE data line: %v", sc.Err())
	}
	var ev struct {
		V     int    `json:"v"`
		Node  string `json:"node"`
		Tuple string `json:"tuple"`
		Added bool   `json:"added"`
	}
	if err := json.Unmarshal([]byte(payload), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.V != SchemaVersion || ev.Node != "n0" || !ev.Added || !strings.HasPrefix(ev.Tuple, "marker(") {
		t.Errorf("unexpected event: %+v", ev)
	}
}

// TestTablesUnknownPredicate pins the error contract of /v1/tables: a
// predicate no node holds is a 404 wrapped in the versioned envelope,
// not a 200 with empty tables.
func TestTablesUnknownPredicate(t *testing.T) {
	_, srv := testServer(t, provenance.ModeDistributed)
	res := get(t, srv.URL+"/v1/tables/noSuchPred", http.StatusNotFound)
	if res.Error == "" || !strings.Contains(res.Error, "noSuchPred") {
		t.Errorf("404 envelope missing the predicate name: %+v", res)
	}
	// Same with a node filter.
	res = get(t, srv.URL+"/v1/tables/noSuchPred?node=n0", http.StatusNotFound)
	if res.Error == "" {
		t.Error("404 without error field")
	}
	// Known predicates still serve.
	get(t, srv.URL+"/v1/tables/link", http.StatusOK)
}

// TestTracebackBadParams pins the 400 paths of /v1/traceback: malformed
// maxdepth and offline values, and a maxdepth past the traceback default,
// are client errors with versioned envelopes.
func TestTracebackBadParams(t *testing.T) {
	n, srv := testServer(t, provenance.ModeDistributed)
	target := queryEscape(n.Tuples("n0", "bestPath")[0].String())
	base := srv.URL + "/v1/traceback?node=n0&tuple=" + target
	for _, q := range []string{"&maxdepth=banana", "&maxdepth=-1", "&maxdepth=65", "&maxdepth=1000000", "&offline=maybe", "&offline=2"} {
		res := get(t, base+q, http.StatusBadRequest)
		if res.Error == "" {
			t.Errorf("400 for %q without error field", q)
		}
	}
	// The accepted spellings still serve.
	for _, q := range []string{"", "&maxdepth=3", "&maxdepth=64", "&offline=0", "&offline=false", "&offline=1", "&offline=true"} {
		get(t, base+q, http.StatusOK)
	}
	// Tuple text nested past the value-depth bound is a 400, not a parse.
	deep := queryEscape("p(" + strings.Repeat("[", 33) + "a" + strings.Repeat("]", 33) + ")")
	if res := get(t, srv.URL+"/v1/traceback?node=n0&tuple="+deep, http.StatusBadRequest); !strings.Contains(res.Error, "nested deeper") {
		t.Errorf("33-deep tuple: error = %q, want the nesting bound", res.Error)
	}
}

// TestSubscribeDisconnectReleasesSubscription pins the SSE cleanup path:
// a client that vanishes mid-stream must not leak its driver
// subscription.
func TestSubscribeDisconnectReleasesSubscription(t *testing.T) {
	cfg := core.Config{Source: core.BestPath, Graph: topo.Line(3), Prov: provenance.ModeDistributed}
	n, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	d := n.Driver()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(n).Handler())
	defer srv.Close()

	reqCtx, disconnect := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, srv.URL+"/v1/subscribe?node=n0&pred=marker", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := d.Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d after connect, want 1", got)
	}
	disconnect() // client drops mid-stream
	deadline := time.Now().Add(5 * time.Second)
	for d.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription leaked: %d subscribers after disconnect", d.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubscribeAtCapIs429 pins /v1/subscribe's limit: while the driver
// holds its maximum of live subscriptions a request gets 429, and once
// one closes the next request streams.
func TestSubscribeAtCapIs429(t *testing.T) {
	n, srv := testServer(t, provenance.ModeNone)
	d := n.Driver()
	var subs []*core.Subscription
	for {
		sub, err := d.Subscribe("", "")
		if errors.Is(err, core.ErrTooManySubscriptions) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if subs = append(subs, sub); len(subs) > 1<<16 {
			t.Fatal("Subscribe never refused")
		}
	}
	res := get(t, srv.URL+"/v1/subscribe?node=n0", http.StatusTooManyRequests)
	if !strings.Contains(res.Error, "too many") {
		t.Errorf("429 error = %q", res.Error)
	}
	subs[0].Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/subscribe?node=n0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after a slot freed: status %d, want 200", resp.StatusCode)
	}
	if got := d.Subscribers(); got != len(subs) {
		t.Fatalf("subscribers = %d, want %d", got, len(subs))
	}
}

// metricsServer is testServer plus an obs registry wired through
// Config.Metrics, with the network driven live (driver started) so the
// observability surface sees churn.
func metricsServer(t *testing.T) (*core.Network, *core.Driver, *httptest.Server) {
	t.Helper()
	cfg := core.Config{
		Source:  core.BestPath,
		Graph:   topo.Line(4),
		Prov:    provenance.ModeDistributed,
		Metrics: obs.New(),
	}
	n, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	d := n.Driver()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(n).Handler())
	t.Cleanup(srv.Close)
	return n, d, srv
}

// TestMetricsEndpoint pins the observability mounts: /metrics serves
// Prometheus text with the core series, /v1/debug/rounds serves the
// versioned flight-recorder dump, and the /v1 middleware counts
// requests. Both mounts 404 when metrics are disabled.
func TestMetricsEndpoint(t *testing.T) {
	_, _, srv := metricsServer(t)

	get(t, srv.URL+"/v1/bestpath", http.StatusOK) // feed the middleware

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(body)
	for _, series := range []string{
		"provnet_scheduler_rounds_total",
		"provnet_engine_firings_total",
		"provnet_transport_messages_total",
		"provnet_http_requests_total{endpoint=\"bestpath\"}",
		"provnet_http_request_seconds_count{endpoint=\"bestpath\"}",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("missing series %s in /metrics:\n%s", series, text)
		}
	}

	resp, err = http.Get(srv.URL + "/v1/debug/rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/rounds: status %d", resp.StatusCode)
	}
	var dump struct {
		V      int `json:"v"`
		Rounds []struct {
			Seq  int64  `json:"seq"`
			Kind string `json:"kind"`
		} `json:"rounds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.V != 1 {
		t.Errorf("debug/rounds v = %d, want 1", dump.V)
	}
	if len(dump.Rounds) == 0 {
		t.Error("debug/rounds empty after a converged run")
	}
	for i, r := range dump.Rounds {
		if r.Kind != "round" && r.Kind != "retract" && r.Kind != "quiesce" {
			t.Errorf("round %d: bad kind %q", i, r.Kind)
		}
	}

	// Without a registry the mounts do not exist.
	_, plain := testServer(t, provenance.ModeDistributed)
	for _, path := range []string{"/metrics", "/v1/debug/rounds"} {
		resp, err := http.Get(plain.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with metrics disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestMetricsScrapeUnderChurn hammers /metrics and /v1/debug/rounds
// while the live driver churns links — the race detector turns any
// unsynchronized scrape path into a failure.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	_, d, srv := metricsServer(t)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/v1/debug/rounds", "/v1/bestpath"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(srv.URL + path)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := d.CutLink("n1", "n2"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatal(err)
		}
		if err := d.SetLink("n1", "n2", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AwaitQuiescence(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

func queryEscape(s string) string {
	r := strings.NewReplacer(" ", "%20", "[", "%5B", "]", "%5D", ",", "%2C", "(", "%28", ")", "%29")
	return r.Replace(s)
}

// TestViewDumpStability double-checks the copy-on-write contract the API
// relies on: two loads of the view between mutations are the same object,
// and a post-churn view is a different object with a higher Seq while the
// old one still renders the old state.
func TestViewDumpStability(t *testing.T) {
	cfg := core.Config{Source: core.BestPath, Graph: topo.Line(3), Prov: provenance.ModeDistributed}
	n, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	d := n.Driver()
	v1 := d.ReadView()
	if v2 := d.ReadView(); v2 != v1 {
		t.Fatal("views between mutations should be the same snapshot")
	}
	before := v1.Dump()
	if err := d.CutLink("n1", "n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitQuiescence(context.Background()); err != nil {
		t.Fatal(err)
	}
	v3 := d.ReadView()
	if v3 == v1 || v3.Seq <= v1.Seq {
		t.Fatalf("churn should publish a new snapshot: %d → %d", v1.Seq, v3.Seq)
	}
	if v1.Dump() != before {
		t.Fatal("old snapshot mutated after churn")
	}
	if fmt.Sprint(v3.Dump()) == before {
		t.Fatal("new snapshot identical to pre-churn state after a link cut")
	}
}
