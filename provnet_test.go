package provnet_test

import (
	"testing"

	"provnet"
	"provnet/internal/benchwork"
)

// TestPublicAPIQuickstart exercises the re-exported surface end to end,
// mirroring the README quickstart.
func TestPublicAPIQuickstart(t *testing.T) {
	g := provnet.CustomGraph([]provnet.GraphLink{
		{From: "a", To: "b", Cost: 1},
		{From: "a", To: "c", Cost: 1},
		{From: "b", To: "c", Cost: 1},
	})
	cfg := provnet.Config{
		Source: provnet.ReachableNDlog,
		Graph:  g,
		Prov:   provnet.ProvLocal,
	}
	n, err := provnet.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages == 0 {
		t.Error("expected traffic")
	}
	reach := n.Tuples("a", "reachable")
	if len(reach) != 2 {
		t.Fatalf("reachable = %v", reach)
	}
	target := provnet.NewTuple("reachable", provnet.Str("a"), provnet.Str("c"))
	tree, _, err := n.DerivationTree("a", target, provnet.ProvQueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() < 3 {
		t.Errorf("tree too small:\n%s", tree.Render(nil))
	}
}

func TestPublicAPITrustGate(t *testing.T) {
	levels := provnet.TrustLevelMap(map[string]int64{"a": 2, "b": 1})
	gate := provnet.NewTrustGate(provnet.MinLevelPolicy{Threshold: 2}, levels, 10)
	if gate == nil {
		t.Fatal("NewTrustGate returned nil")
	}
	p, err := provnet.ParseProgram(provnet.ReachableSeNDlog)
	if err != nil || len(p.Rules) != 3 {
		t.Fatalf("parse: %v", err)
	}
}

// TestSessionAuthAmortizesSignatures pins what the session transport is
// for, on the benchmark workload (the 20-node Best-Path churn run):
// against the paper's scheme, one signature per tuple (Unbatched), it
// performs at least 10x fewer signature operations, and it MACs exactly
// the frames the batched RSA run ships — the same fixpoint traffic. It is
// not compared with the batched RSA run's signatures: that run signs once
// per node per round, which a handshake per link does not beat on a short
// run.
func TestSessionAuthAmortizesSignatures(t *testing.T) {
	perTuple := provnet.VariantConfig(provnet.VariantSeNDlog, provnet.BestPath)
	perTuple.Unbatched = true
	// Counts do not depend on the key size; 512 bits keep a signature per tuple quick.
	repTuple := benchwork.BestPathChurn(t.Fatal, perTuple, 20, benchwork.DefaultCycles, 512, 2000)
	if repTuple.Signed != repTuple.Messages {
		t.Errorf("per-tuple RSA: %d signatures for %d messages, want one each", repTuple.Signed, repTuple.Messages)
	}

	rsa := provnet.VariantConfig(provnet.VariantSeNDlog, provnet.BestPath)
	repRSA := benchwork.BestPathChurn(t.Fatal, rsa, 20, benchwork.DefaultCycles, 1024, 2000)

	session := provnet.VariantConfig(provnet.VariantSeNDlog, provnet.BestPath)
	session.Auth = provnet.AuthSession
	repS := benchwork.BestPathChurn(t.Fatal, session, 20, benchwork.DefaultCycles, 1024, 2000)

	if repS.Signed == 0 || repTuple.Signed < 10*repS.Signed {
		t.Errorf("signature ops: session %d vs per-tuple RSA %d, want >= 10x reduction",
			repS.Signed, repTuple.Signed)
	}
	if repS.SealedMAC != repRSA.Messages {
		t.Errorf("session MACs = %d, want one per data or retract frame of the RSA run (%d)",
			repS.SealedMAC, repRSA.Messages)
	}
}

// TestLiveChurnBeatsRestart pins the live-churn claim on the shared
// benchwork workload: after a single CutLink, incremental re-convergence
// through the live driver costs strictly fewer transport bytes than a
// full restart on every seed, and fewer scheduler rounds in aggregate.
func TestLiveChurnBeatsRestart(t *testing.T) {
	totalLive, totalRestart := 0, 0
	for seed := int64(3000); seed < 3003; seed++ {
		cfg := provnet.VariantConfig(provnet.VariantSeNDlog, provnet.BestPath)
		r := benchwork.LiveCutLink(t.Fatal, cfg, 16, 512, seed)
		t.Logf("seed %d: cut %s->%s live %d rounds / %d bytes, restart %d rounds / %d bytes",
			seed, r.CutFrom, r.CutTo, r.LiveRounds, r.LiveBytes, r.RestartRounds, r.RestartBytes)
		if r.LiveBytes >= r.RestartBytes {
			t.Errorf("seed %d: live bytes %d not below restart bytes %d", seed, r.LiveBytes, r.RestartBytes)
		}
		if r.Retracted == 0 {
			t.Errorf("seed %d: cut retracted nothing", seed)
		}
		totalLive += r.LiveRounds
		totalRestart += r.RestartRounds
	}
	if totalLive >= totalRestart {
		t.Errorf("live rounds %d not below restart rounds %d in aggregate", totalLive, totalRestart)
	}
}
