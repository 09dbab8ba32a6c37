package queryapi

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"provnet/internal/core"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// TestTracebackReplyPins pins every /v1/traceback?maxdepth=12 reply of a
// fixed Best-Path network under distributed provenance: the stats
// (messages, bytes, nodes visited, entries) and a digest of the whole
// JSON body, for every bestPath row at every node, plus one moonwalk
// query with a seeded Rng. testdata/traceback_pins.txt holds the lines;
// a mismatch prints the full set this build produced.
func TestTracebackReplyPins(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, MaxCost: 10, Seed: 5})
	n, err := core.NewNetwork(core.Config{Source: core.BestPath, Graph: g, Prov: provenance.ModeDistributed, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	h := NewServer(n).Handler()
	view := n.Driver().ReadView()
	var got strings.Builder
	for _, node := range view.Nodes() {
		for _, row := range view.Rows(node, "bestPath") {
			target := row.Tuple.String()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/traceback?maxdepth=12&node="+url.QueryEscape(node)+"&tuple="+url.QueryEscape(target), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s at %s: status %d: %s", target, node, rec.Code, rec.Body)
			}
			var res QueryResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Stats == nil {
				t.Fatalf("%s at %s: %v %s", target, node, err, rec.Body)
			}
			fmt.Fprintf(&got, "%s %s %s %x\n", node, target, pinStats(res.Stats), sha256.Sum256(rec.Body.Bytes()))
		}
	}
	node, target := "n3", view.Rows("n3", "bestPath")[2].Tuple
	tree, stats, err := n.DerivationTree(node, target, provenance.QueryOpts{MaxDepth: 12, Moonwalk: true, Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(FromTree(tree))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "moonwalk %s %s %s %x\n", node, target, pinStats(FromStats(stats)), sha256.Sum256(body))

	path := filepath.Join("testdata", "traceback_pins.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("traceback replies diverge from %s; this build's lines:\n%s", path, got.String())
	}
}

func pinStats(s *TraceStats) string {
	return fmt.Sprintf("messages=%d bytes=%d nodes=%d entries=%d", s.Messages, s.Bytes, s.NodesVisited, s.Entries)
}
