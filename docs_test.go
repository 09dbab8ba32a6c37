package provnet

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"provnet/internal/queryapi"
)

// docFiles are the markdown files whose links the docs CI job keeps
// honest: a moved or renamed target breaks the build, not the reader.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "ROADMAP.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, more...)
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// githubAnchor approximates GitHub's heading-anchor slugs: lowercase,
// punctuation stripped, spaces to hyphens.
func githubAnchor(heading string) string {
	h := strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsOf collects the heading anchors of one markdown file.
func anchorsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		anchors[githubAnchor(strings.TrimLeft(line, "# "))] = true
	}
	return anchors
}

// TestDocLinks is the markdown link checker the CI docs job runs: every
// relative link in README/ROADMAP/docs must point at an existing file
// (and, when it carries a #fragment, at an existing heading).
func TestDocLinks(t *testing.T) {
	for _, src := range docFiles(t) {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			link := m[1]
			if strings.Contains(link, "://") || strings.HasPrefix(link, "mailto:") {
				continue // external; checking the web is not this test's job
			}
			target, frag, _ := strings.Cut(link, "#")
			path := src // pure-fragment links point into the same file
			if target != "" {
				path = filepath.Join(filepath.Dir(src), target)
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: broken link %q: %v", src, link, err)
					continue
				}
			}
			if frag != "" && strings.HasSuffix(path, ".md") {
				if !anchorsOf(t, path)[frag] {
					t.Errorf("%s: link %q: no heading with anchor %q in %s", src, link, frag, path)
				}
			}
		}
	}
}

var (
	inventoryName = regexp.MustCompile("`([a-z][a-z0-9_]*)(\\{[^`]*\\})?`")
	seriesLiteral = regexp.MustCompile(`"(provnet_[a-z0-9_]+)"`)
)

// documentedSeries reads the series names out of the first column of
// the "Metric inventory" tables of docs/OBSERVABILITY.md.
func documentedSeries(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, ok := strings.Cut(string(raw), "## Metric inventory")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md: no Metric inventory section")
	}
	inventory, _, _ = strings.Cut(inventory, "\n## ")
	names := map[string]bool{}
	for _, line := range strings.Split(inventory, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell, _, _ := strings.Cut(line[2:], " | ")
		for _, m := range inventoryName.FindAllStringSubmatch(cell, -1) {
			names["provnet_"+m[1]] = true
		}
	}
	return names
}

// TestMetricInventory keeps docs/OBSERVABILITY.md and the code from
// drifting apart: the series a metrics-on network registers (with a
// durable store and the query API mounted), and every provnet_* name a
// non-test source file spells out — the ones registered only by a TCP
// transport, the termination detector or the CLI — must each have a row
// in the inventory, and every row must name a series the source knows.
// The network runs condensed provenance, so the two provenance gauges,
// sampled at its quiescence, must read non-zero.
func TestMetricInventory(t *testing.T) {
	documented := documentedSeries(t)

	m := NewMetrics()
	store, err := OpenStoreLog(t.TempDir(), StoreLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(BestPath, WithGraph(LineGraph(3)), WithProv(ProvCondensed), WithMetrics(m), WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	queryapi.NewServer(n).Handler()
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	known := map[string]string{} // series → where it was found
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			known[f[2]] = "registered by a metrics-on network"
		}
	}
	if len(known) < 30 {
		t.Fatalf("only %d series registered; is the registry wired?", len(known))
	}
	// Every transport answers QueueDepths, and the handshake count comes
	// from the session sealer, so both register on the in-memory fabric.
	for _, name := range []string{"provnet_transport_queue_depth", "provnet_crypto_handshakes_total"} {
		if _, ok := known[name]; !ok {
			t.Errorf("%s is not registered on the in-memory fabric", name)
		}
	}
	// Every BDD node rendered is a node of a manager: 0 < memo <= nodes.
	bddNodes := m.Gauge("provnet_provenance_bdd_nodes", "").Value()
	exprMemo := m.Gauge("provnet_provenance_expr_memo_entries", "").Value()
	if exprMemo <= 0 || exprMemo > bddNodes {
		t.Errorf("at quiescence: %d BDD nodes, %d memoised expressions; want 0 < memo <= nodes", bddNodes, exprMemo)
	}

	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_out
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range seriesLiteral.FindAllStringSubmatch(string(raw), -1) {
			if _, ok := known[m[1]]; !ok {
				known[m[1]] = "named in " + path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for name, where := range known {
		if !documented[name] {
			t.Errorf("%s (%s) is missing from the inventory in docs/OBSERVABILITY.md", name, where)
		}
	}
	for name := range documented {
		if _, ok := known[name]; !ok {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which nothing registers", name)
		}
	}
}
