package core

import (
	"testing"

	"provnet/internal/auth"
	"provnet/internal/data"
	"provnet/internal/provenance"
	"provnet/internal/topo"
)

// bestPathCfg is the §6 Best-Path workload the transport stack is
// A/B-tested on.
func bestPathCfg() Config {
	return Config{
		Source: BestPath,
		Graph:  topo.RandomConnected(topo.Options{N: 12, AvgOutDegree: 3, MaxCost: 10, Seed: 9}),
		Auth:   auth.SchemeRSA,
	}
}

// TestTransportSchedulesMatch pins the tentpole invariant across the
// whole transport-security stack: the sequential per-tuple-RSA baseline
// and the session-MAC transport under either schedule produce
// bit-identical fixpoint tables and round counts on the §6 Best-Path
// workload. (Bytes and signature counts legitimately differ across wire
// formats.)
func TestTransportSchedulesMatch(t *testing.T) {
	base := bestPathCfg()

	seqRSA := base
	seqRSA.Sequential = true
	seqRSA.Unbatched = true
	nBase, repBase := mustRun(t, seqRSA)
	want, wantRounds := render(nBase, shape{}), repBase.Rounds

	schedules := []struct {
		name string
		mut  func(*Config)
	}{
		{"parallel-rsa-batched", func(c *Config) {}},
		{"parallel-session", func(c *Config) { c.Auth = auth.SchemeSession }},
		{"parallel-session-unbatched", func(c *Config) { c.Auth = auth.SchemeSession; c.Unbatched = true }},
		{"sequential-session", func(c *Config) { c.Sequential = true; c.Auth = auth.SchemeSession }},
	}
	for _, s := range schedules {
		t.Run(s.name, func(t *testing.T) {
			cfg := base
			s.mut(&cfg)
			n, rep := mustRun(t, cfg)
			if got := render(n, shape{}); got != want {
				t.Fatalf("fixpoint tables differ from sequential/per-tuple-RSA baseline\n--- want ---\n%s--- got ---\n%s", want, got)
			}
			if rep.Rounds != wantRounds {
				t.Errorf("rounds = %d, want %d", rep.Rounds, wantRounds)
			}
		})
	}
}

// TestSessionAmortizesSignatures checks the point of the session stack:
// against the paper's one signature per tuple (Unbatched), RSA signature
// operations drop to one per link handshake, with the per-envelope work
// done by session MACs instead. (The batched RSA run signs once per node
// per round, which on a run this short is no more than the handshakes.)
func TestSessionAmortizesSignatures(t *testing.T) {
	rsa := bestPathCfg()
	rsa.Unbatched = true
	_, repRSA := mustRun(t, rsa)

	session := bestPathCfg()
	session.Auth = auth.SchemeSession
	_, repS := mustRun(t, session)

	if repS.Signed >= repRSA.Signed {
		t.Errorf("session signatures = %d, want < per-tuple RSA %d", repS.Signed, repRSA.Signed)
	}
	if repS.Handshakes == 0 || repS.Signed != repS.Handshakes {
		t.Errorf("session Signed = %d, Handshakes = %d: signatures should be exactly the handshakes",
			repS.Signed, repS.Handshakes)
	}
	if repS.SealedMAC == 0 || repS.OpenedMAC == 0 {
		t.Errorf("MAC ops = %d/%d, want > 0", repS.SealedMAC, repS.OpenedMAC)
	}
	// Without rekeying there is at most one handshake per directed pair
	// that carries traffic (localized rules ship tuples both along and
	// against topology links, so the bound is twice the link count).
	links := len(session.Graph.Links)
	if repS.Handshakes > int64(2*links) {
		t.Errorf("handshakes = %d, want <= %d directed pairs without rekey", repS.Handshakes, 2*links)
	}
	// Core counts the handshake datagrams' bytes; the transport charges
	// them with everything else.
	if repS.HandshakeBytes == 0 || repS.HandshakeBytes >= repS.Bytes {
		t.Errorf("handshake bytes = %d of %d total", repS.HandshakeBytes, repS.Bytes)
	}
	if repRSA.Handshakes != 0 || repRSA.SealedMAC != 0 {
		t.Errorf("per-envelope run reports session ops: %+v", repRSA)
	}
}

// TestSessionRekeyBoundaries checks that rekeying re-handshakes live
// links and everything still decodes across epoch boundaries.
func TestSessionRekeyBoundaries(t *testing.T) {
	noRekey := bestPathCfg()
	noRekey.Auth = auth.SchemeSession
	nN, repN := mustRun(t, noRekey)

	rekey := bestPathCfg()
	rekey.Auth = auth.SchemeSession
	rekey.RekeyRounds = 1 // fresh keys every round: every boundary is a rekey boundary
	nR, repR := mustRun(t, rekey)

	if a, b := render(nN, shape{}), render(nR, shape{}); a != b {
		t.Fatal("rekeying must not change the fixpoint")
	}
	if repR.Rounds != repN.Rounds {
		t.Errorf("rounds: no-rekey %d, rekey %d", repN.Rounds, repR.Rounds)
	}
	if repR.Handshakes <= repN.Handshakes {
		t.Errorf("rekey handshakes = %d, want > %d", repR.Handshakes, repN.Handshakes)
	}
	if repR.RejectedSig != 0 {
		t.Errorf("rekey run rejected %d envelopes", repR.RejectedSig)
	}
}

// TestSessionRefusesSignedData pins that the receiver's configuration
// picks the sealer, never the frame: a data frame correctly RSA-signed by
// b, injected into a session-mode network, is dropped and counted and
// pollutes no table. Only session keys open data here.
func TestSessionRefusesSignedData(t *testing.T) {
	cfg := Config{Source: ReachableNDlog, Graph: paperGraph(),
		Auth: auth.SchemeSession, KeyBits: 512}
	clean, _ := mustRun(t, cfg)

	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	signed := &frame{kind: kindData, from: "b", items: []item{
		{tuple: data.NewTuple("reachable", data.Str("b"), data.Str("signed"))}}}
	p, err := signed.seal(new(roundScratch), n.control, "a")
	if err != nil {
		t.Fatal(err)
	}
	if f, err := decodeFrame(p, nil); err != nil || f.open(n.control, "a") != nil {
		t.Fatalf("the injected frame must be correctly signed: %v", err)
	}
	if err := n.Transport().Send("b", "a", p); err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedSig != 1 {
		t.Errorf("RejectedSig = %d, want 1", rep.RejectedSig)
	}
	if got, want := render(n, shape{}), render(clean, shape{}); got != want {
		t.Errorf("a per-envelope-signed frame reached a session network's tables\n--- clean ---\n%s--- got ---\n%s", want, got)
	}
}

// TestKindFlippedFrameRejected replays a data frame correctly signed by b
// with its kind byte changed to retract: the tag covers the kind, so the
// frame is dropped, counted, and withdraws nothing. (The flip that parses
// — token to terminate — is in TestEnvelopeTamperDetection.)
func TestKindFlippedFrameRejected(t *testing.T) {
	cfg := Config{Source: ReachableNDlog, Graph: paperGraph(),
		Auth: auth.SchemeRSA, KeyBits: 512}
	n, _ := mustRun(t, cfg)
	want := render(n, shape{})
	said := &frame{kind: kindData, from: "b", items: []item{
		{tuple: data.NewTuple("reachable", data.Str("b"), data.Str("c"))}}}
	p, err := said.seal(new(roundScratch), n.sealer, "a")
	if err != nil {
		t.Fatal(err)
	}
	p[0] = kindRetract
	if err := n.Transport().Send("b", "a", p); err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedSig != 1 {
		t.Errorf("RejectedSig = %d, want 1", rep.RejectedSig)
	}
	if got := render(n, shape{}); got != want {
		t.Errorf("a kind-flipped frame changed the tables\n--- before ---\n%s--- after ---\n%s", want, got)
	}
}

// TestSessionDropsUnverifiableInput floods a session-mode network with
// corrupted and truncated session traffic: every datagram must be dropped
// cleanly (counted, no panic, no table pollution) and the run still
// completes.
func TestSessionDropsUnverifiableInput(t *testing.T) {
	cfg := Config{Source: ReachableNDlog, Graph: paperGraph(),
		Auth: auth.SchemeSession, KeyBits: 512}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A forged handshake (garbage blob), an empty one, and a data frame
	// with an empty tag on a link that never shook hands.
	orphan := &frame{kind: kindData, from: "b", items: []item{
		{tuple: data.NewTuple("reachable", data.Str("b"), data.Str("forged"))}}}
	orphanPayload, err := orphan.seal(new(roundScratch), auth.SignerSealer{S: auth.NoneSigner{}}, "a")
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		{kindHandshake, 0xde, 0xad, 0xbe, 0xef},
		{kindHandshake},
		orphanPayload,
	}
	for _, p := range bad {
		if err := n.Transport().Send("b", "a", p); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedSig != int64(len(bad)) {
		t.Errorf("rejected = %d, want %d", rep.RejectedSig, len(bad))
	}
	for _, tu := range n.Tuples("a", "reachable") {
		if tu.Args[1].Str == "forged" {
			t.Fatal("forged session frame accepted")
		}
	}
}

// TestMalformedDatagramsAreDropped pins that decoding, which precedes
// authentication, cannot stop a node: one garbage payload per frame kind,
// an unknown kind and an empty datagram are dropped and counted like
// unverifiable input, the run succeeds, and the tables match a run that
// never saw them.
func TestMalformedDatagramsAreDropped(t *testing.T) {
	cfg := Config{Source: ReachableNDlog, Graph: paperGraph(),
		Auth: auth.SchemeSession, KeyBits: 512}
	clean, _ := mustRun(t, cfg)

	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	garbage := [][]byte{
		{},
		{kindData, 0xff},
		{kindRetract, 0xff},
		{kindHandshake, 0xff},
		{kindToken, 0xff},
		{kindTerminate, 0xff},
		{0xee, 0xff},
	}
	for _, p := range garbage {
		if err := n.Transport().Send("b", "a", p); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := n.Run(0)
	if err != nil {
		t.Fatalf("a malformed datagram failed the run: %v", err)
	}
	if rep.RejectedSig != int64(len(garbage)) {
		t.Errorf("RejectedSig = %d, want %d (one per malformed datagram)", rep.RejectedSig, len(garbage))
	}
	if got, want := render(n, shape{}), render(clean, shape{}); got != want {
		t.Errorf("tables polluted by malformed input\n--- clean ---\n%s--- got ---\n%s", want, got)
	}

	// Provenance that does not decode, with no authentication to hide
	// behind: a condensed table or ref that fails to parse, and a local
	// frame that parses and authenticates but whose second tree does not
	// unmarshal — its sound first item must not be inserted either.
	for _, c := range []struct {
		mode   provenance.Mode
		frames []*frame
	}{
		{provenance.ModeCondensed, []*frame{
			condensedFrame([]byte{5}, 0),                              // truncated table
			condensedFrame([]byte{1, 1, 'a', 2, 0, 0, 3, 0, 0, 1}, 2), // forward ref
			condensedFrame(condensedTable, 3, 5),                      // dangling item ref
			condensedFrame([]byte{1, 1, 'a', 1, 1, 0, 1}, 2),          // variable index out of range
		}},
		{provenance.ModeLocal, []*frame{{kind: kindData, from: "b", mode: provenance.ModeLocal, items: []item{
			{tuple: data.NewTuple("reachable", data.Str("a"), data.Str("forged"))},
			{tuple: data.NewTuple("reachable", data.Str("a"), data.Str("forged2")), prov: []byte{5}},
		}}}},
	} {
		t.Run(c.mode.String(), func(t *testing.T) {
			cfg := Config{Source: ReachableNDlog, Graph: paperGraph(), Prov: c.mode}
			clean, _ := mustRun(t, cfg)
			n, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range c.frames {
				p, err := f.seal(new(roundScratch), n.sealer, "a")
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Transport().Send("b", "a", p); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := n.Run(0)
			if err != nil {
				t.Fatalf("undecodable provenance failed the run: %v", err)
			}
			if rep.RejectedSig != int64(len(c.frames)) {
				t.Errorf("RejectedSig = %d, want %d (one per frame)", rep.RejectedSig, len(c.frames))
			}
			if got, want := render(n, shape{}), render(clean, shape{}); got != want {
				t.Errorf("tables polluted by undecodable provenance\n--- clean ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}

// TestSessionFramesRejectedWithoutSessionAuth pins the downgrade path: a
// network running the per-envelope transport drops handshake frames it
// cannot open instead of erroring or panicking.
func TestSessionFramesRejectedWithoutSessionAuth(t *testing.T) {
	cfg := Config{Source: ReachableNDlog, Graph: paperGraph(),
		Auth: auth.SchemeRSA, KeyBits: 512}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Transport().Send("b", "a", []byte{kindHandshake, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedSig == 0 {
		t.Error("a handshake frame must be dropped and counted when session auth is off")
	}
}

// TestVariantConfigSessionKnobs sanity-checks provenance modes under the
// session transport: condensed provenance still ships and condenses.
func TestSessionWithCondensedProvenance(t *testing.T) {
	cfg := Config{
		Source: ReachableSeNDlog,
		Graph:  paperGraph(),
		Auth:   auth.SchemeSession,
		Prov:   provenance.ModeCondensed,
	}
	n, _ := mustRun(t, cfg)
	base := Config{
		Source: ReachableSeNDlog,
		Graph:  paperGraph(),
		Auth:   auth.SchemeRSA,
		Prov:   provenance.ModeCondensed,
	}
	nB, _ := mustRun(t, base)
	if a, b := render(n, shape{}), render(nB, shape{}); a != b {
		t.Fatal("session transport must not change condensed-provenance fixpoint")
	}
}
