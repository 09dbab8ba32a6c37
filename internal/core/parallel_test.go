package core

import (
	"testing"

	"provnet/internal/auth"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// TestParallelMatchesSequential asserts the tentpole invariant: the
// parallel worker-pool scheduler produces exactly the same fixpoint
// tables, round count, and transport stats as the sequential baseline,
// across program/topology/wire-format variants (TestMain makes the pool
// at least four workers wide). Run with -race this also exercises the
// fabric and signer under concurrency.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"reachable-ndlog-paper", Config{
			Source: ReachableNDlog, Graph: paperGraph(),
		}},
		{"reachable-sendlog-rsa-condensed", Config{
			Source: ReachableSeNDlog,
			Graph:  topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, Seed: 7}),
			Auth:   auth.SchemeRSA, Prov: provenance.ModeCondensed,
		}},
		{"bestpath-rsa", Config{
			Source: BestPath,
			Graph:  topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 4}),
			Auth:   auth.SchemeRSA,
		}},
		{"distance-vector-local-prov", Config{
			Source: DistanceVector,
			Graph:  topo.RandomConnected(topo.Options{N: 10, AvgOutDegree: 3, MaxCost: 10, Seed: 2}),
			Prov:   provenance.ModeLocal,
		}},
	}
	for _, tc := range cases {
		for _, unbatched := range []bool{false, true} {
			name := tc.name + "/batched"
			if unbatched {
				name = tc.name + "/unbatched"
			}
			t.Run(name, func(t *testing.T) {
				seq := tc.cfg
				seq.Sequential = true
				seq.Unbatched = unbatched
				nSeq, repSeq := mustRun(t, seq)

				par := tc.cfg
				par.Sequential = false
				par.Unbatched = unbatched
				nPar, repPar := mustRun(t, par)

				if a, b := render(nSeq, shape{}), render(nPar, shape{}); a != b {
					t.Fatalf("fixpoint tables differ\n--- sequential ---\n%s--- parallel ---\n%s", a, b)
				}
				if repSeq.Rounds != repPar.Rounds {
					t.Errorf("rounds: sequential %d, parallel %d", repSeq.Rounds, repPar.Rounds)
				}
				sSeq, sPar := nSeq.Transport().Stats(), nPar.Transport().Stats()
				if sSeq != sPar {
					t.Errorf("netsim stats: sequential %+v, parallel %+v", sSeq, sPar)
				}
				if repSeq.Signed != repPar.Signed || repSeq.Verified != repPar.Verified {
					t.Errorf("signature ops: sequential %d/%d, parallel %d/%d",
						repSeq.Signed, repSeq.Verified, repPar.Signed, repPar.Verified)
				}
				if repSeq.Derivations != repPar.Derivations || repSeq.TuplesStored != repPar.TuplesStored {
					t.Errorf("engine stats: sequential %d/%d, parallel %d/%d",
						repSeq.Derivations, repSeq.TuplesStored, repPar.Derivations, repPar.TuplesStored)
				}
			})
		}
	}
}

// TestBatchingReducesMessagesAndBytes checks the wire-level half of the
// tentpole: batch envelopes ship the same fixpoint in fewer messages
// (fewer netsim.HeaderOverhead charges) and fewer signatures.
func TestBatchingReducesMessagesAndBytes(t *testing.T) {
	g := topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 6})
	base := Config{Source: BestPath, Graph: g, Auth: auth.SchemeRSA}

	batched := base
	nB, repB := mustRun(t, batched)

	unbatched := base
	unbatched.Unbatched = true
	nU, repU := mustRun(t, unbatched)

	if a, b := render(nB, shape{}), render(nU, shape{}); a != b {
		t.Fatal("wire format must not change the fixpoint")
	}
	if repB.Messages >= repU.Messages {
		t.Errorf("batched messages = %d, want < unbatched %d", repB.Messages, repU.Messages)
	}
	if repB.Bytes >= repU.Bytes {
		t.Errorf("batched bytes = %d, want < unbatched %d", repB.Bytes, repU.Bytes)
	}
	if repB.Signed >= repU.Signed {
		t.Errorf("batched signatures = %d, want < unbatched %d", repB.Signed, repU.Signed)
	}
}
