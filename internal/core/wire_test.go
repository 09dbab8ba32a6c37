package core

import (
	"testing"

	"provnet/internal/auth"
	"provnet/internal/data"
	"provnet/internal/provenance"
)

func testDir(t *testing.T) *auth.Directory {
	t.Helper()
	dir := auth.NewDeterministicDirectory(11)
	dir.SetKeyBits(512)
	for _, p := range []string{"a", "b"} {
		if err := dir.AddPrincipal(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func testSealer(t *testing.T) auth.Sealer {
	t.Helper()
	return auth.SignerSealer{S: auth.NewRSASigner(testDir(t))}
}

// testSessionSealer returns a session sealer with the a→b handshake
// already performed on both sides.
func testSessionSealer(t *testing.T) *auth.SessionSealer {
	t.Helper()
	s := auth.NewSessionSealer(testDir(t), 0)
	need, epoch, err := s.EnsureSession("a", "b")
	if err != nil || !need {
		t.Fatalf("EnsureSession: need=%v err=%v", need, err)
	}
	frame, err := s.SealHandshake("a", "b", epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcceptHandshake("b", frame); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEnvelopeRoundTrip(t *testing.T) {
	sealer := testSealer(t)
	env := &Envelope{
		From:     "a",
		Tuple:    data.NewTuple("path", data.Str("a"), data.Str("c"), data.Strings("a", "b", "c"), data.Int(2)).Says("a"),
		ProvMode: provenance.ModeCondensed,
		Prov:     []byte{9, 8, 7},
		Scheme:   auth.SchemeRSA,
	}
	b, err := env.Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || !got.Tuple.Equal(env.Tuple) || got.ProvMode != provenance.ModeCondensed {
		t.Fatalf("decoded = %+v", got)
	}
	if string(got.Prov) != string(env.Prov) {
		t.Error("prov payload mismatch")
	}
	if err := got.Verify(sealer, "b"); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestEnvelopeNoneSchemeRoundTrip(t *testing.T) {
	none := auth.SignerSealer{S: auth.NoneSigner{}}
	env := &Envelope{From: "a", Tuple: data.NewTuple("p", data.Int(1)), Scheme: auth.SchemeNone}
	b, err := env.Encode(none, "b")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sig) != 0 {
		t.Error("none scheme has no signature")
	}
	if err := got.Verify(none, "b"); err != nil {
		t.Error("none verify must pass")
	}
}

func TestEnvelopeTamperDetection(t *testing.T) {
	sealer := testSealer(t)
	env := &Envelope{From: "a", Tuple: data.NewTuple("p", data.Int(1)), Scheme: auth.SchemeRSA}
	b, err := env.Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := DecodeEnvelope(b)

	// Wrong claimed sender.
	got.From = "b"
	if err := got.Verify(sealer, "b"); err == nil {
		t.Error("sender substitution must fail verification")
	}
	// Tampered tuple.
	got2, _ := DecodeEnvelope(b)
	got2.Tuple = data.NewTuple("p", data.Int(2))
	if err := got2.Verify(sealer, "b"); err == nil {
		t.Error("tuple tampering must fail verification")
	}
	// Tampered provenance payload.
	got3, _ := DecodeEnvelope(b)
	got3.Prov = []byte{1}
	if err := got3.Verify(sealer, "b"); err == nil {
		t.Error("provenance tampering must fail verification")
	}
}

func TestDecodeEnvelopeErrors(t *testing.T) {
	if _, err := DecodeEnvelope(nil); err == nil {
		t.Error("nil must fail")
	}
	if _, err := DecodeEnvelope([]byte{99, 0}); err == nil {
		t.Error("bad version must fail")
	}
	sealer := testSealer(t)
	env := &Envelope{From: "a", Tuple: data.NewTuple("p", data.Int(1)), Scheme: auth.SchemeRSA}
	b, err := env.Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(b[:len(b)-1]); err == nil {
		t.Error("truncation must fail")
	}
	if _, err := DecodeEnvelope(append(b, 0)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

// TestDecodeNeverPanics truncates valid datagrams of all three wire
// formats at every prefix length: every cut must produce an error (or,
// for the full length, a clean decode) — never a panic.
func TestDecodeNeverPanics(t *testing.T) {
	sealer := testSealer(t)
	env := &Envelope{
		From:     "a",
		Tuple:    data.NewTuple("path", data.Str("a"), data.Strings("a", "b"), data.Int(2)),
		ProvMode: provenance.ModeCondensed,
		Prov:     []byte{1, 2, 3},
		Scheme:   auth.SchemeRSA,
	}
	single, err := env.Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	batch := &BatchEnvelope{
		From:     "a",
		ProvMode: provenance.ModeCondensed,
		Scheme:   auth.SchemeRSA,
		Items: []BatchItem{
			{Tuple: data.NewTuple("p", data.Int(1)), Prov: []byte{4}},
			{Tuple: data.NewTuple("q", data.Str("x"))},
		},
	}
	batched, err := batch.Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	session := testSessionSealer(t)
	sess := &SessionEnvelope{
		From:     "a",
		ProvMode: provenance.ModeCondensed,
		Items: []BatchItem{
			{Tuple: data.NewTuple("p", data.Int(1)), Prov: []byte{4}},
			{Tuple: data.NewTuple("q", data.Str("x"))},
		},
	}
	sessioned, err := sess.Encode(session, "b")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{single, batched, sessioned} {
		for cut := 0; cut < len(b); cut++ {
			if _, err := DecodeEnvelope(b[:cut]); err == nil {
				t.Fatalf("single decode of %d/%d bytes must fail", cut, len(b))
			}
			if _, err := DecodeBatchEnvelope(b[:cut]); err == nil {
				t.Fatalf("batch decode of %d/%d bytes must fail", cut, len(b))
			}
			if _, err := DecodeSessionEnvelope(b[:cut]); err == nil {
				t.Fatalf("session decode of %d/%d bytes must fail", cut, len(b))
			}
			// None of these payloads are handshake frames, at any cut.
			if _, err := DecodeHandshakeFrame(b[:cut]); err == nil {
				t.Fatalf("handshake decode of %d/%d bytes must fail", cut, len(b))
			}
		}
	}
}

func TestBatchEnvelopeRoundTrip(t *testing.T) {
	sealer := testSealer(t)
	env := &BatchEnvelope{
		From:     "a",
		ProvMode: provenance.ModeCondensed,
		Scheme:   auth.SchemeRSA,
		Items: []BatchItem{
			{Tuple: data.NewTuple("path", data.Str("a"), data.Str("c"), data.Int(2)).Says("a"), Prov: []byte{9, 8}},
			{Tuple: data.NewTuple("path", data.Str("a"), data.Str("b"), data.Int(1)).Says("a")},
		},
	}
	b, err := env.Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.ProvMode != provenance.ModeCondensed || got.Scheme != auth.SchemeRSA {
		t.Fatalf("decoded header = %+v", got)
	}
	if len(got.Items) != 2 || !got.Items[0].Tuple.Equal(env.Items[0].Tuple) ||
		!got.Items[1].Tuple.Equal(env.Items[1].Tuple) {
		t.Fatalf("decoded items = %+v", got.Items)
	}
	if string(got.Items[0].Prov) != string(env.Items[0].Prov) || len(got.Items[1].Prov) != 0 {
		t.Error("prov payload mismatch")
	}
	if err := got.Verify(sealer, "b"); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestBatchEnvelopeTamperDetection(t *testing.T) {
	sealer := testSealer(t)
	env := &BatchEnvelope{
		From:   "a",
		Scheme: auth.SchemeRSA,
		Items:  []BatchItem{{Tuple: data.NewTuple("p", data.Int(1))}},
	}
	b, err := env.Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	// Wrong claimed sender.
	got, _ := DecodeBatchEnvelope(b)
	got.From = "b"
	if err := got.Verify(sealer, "b"); err == nil {
		t.Error("sender substitution must fail verification")
	}
	// Tampered item.
	got2, _ := DecodeBatchEnvelope(b)
	got2.Items[0].Tuple = data.NewTuple("p", data.Int(2))
	if err := got2.Verify(sealer, "b"); err == nil {
		t.Error("item tampering must fail verification")
	}
	// Injected item.
	got3, _ := DecodeBatchEnvelope(b)
	got3.Items = append(got3.Items, BatchItem{Tuple: data.NewTuple("p", data.Int(3))})
	if err := got3.Verify(sealer, "b"); err == nil {
		t.Error("item injection must fail verification")
	}
}

// TestSessionEnvelopeRoundTrip exercises the v3 data frame: sealed with
// the per-link session MAC, opened only on the right link.
func TestSessionEnvelopeRoundTrip(t *testing.T) {
	session := testSessionSealer(t)
	env := &SessionEnvelope{
		From:     "a",
		ProvMode: provenance.ModeCondensed,
		Items: []BatchItem{
			{Tuple: data.NewTuple("path", data.Str("a"), data.Str("c"), data.Int(2)).Says("a"), Prov: []byte{9, 8}},
			{Tuple: data.NewTuple("path", data.Str("a"), data.Str("b"), data.Int(1)).Says("a")},
		},
	}
	b, err := env.Encode(session, "b")
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != wireVersionSession || b[1] != frameData {
		t.Fatalf("frame header = %d %d", b[0], b[1])
	}
	got, err := DecodeSessionEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.ProvMode != provenance.ModeCondensed || len(got.Items) != 2 {
		t.Fatalf("decoded = %+v", got)
	}
	if !got.Items[0].Tuple.Equal(env.Items[0].Tuple) || string(got.Items[0].Prov) != string(env.Items[0].Prov) {
		t.Fatalf("decoded items = %+v", got.Items)
	}
	if err := got.Open(session, "b"); err != nil {
		t.Fatalf("open: %v", err)
	}
	// Tampered item must fail the MAC.
	got2, _ := DecodeSessionEnvelope(b)
	got2.Items[0].Tuple = data.NewTuple("p", data.Int(99))
	if err := got2.Open(session, "b"); err == nil {
		t.Error("item tampering must fail the session MAC")
	}
	// Wrong link must fail: no b→a session exists.
	got3, _ := DecodeSessionEnvelope(b)
	got3.From = "b"
	if err := got3.Open(session, "a"); err == nil {
		t.Error("cross-link replay must fail")
	}
}

// TestHandshakeFrameRoundTrip pins the v3 handshake framing.
func TestHandshakeFrameRoundTrip(t *testing.T) {
	blob := []byte{1, 2, 3, 4}
	frame := EncodeHandshakeFrame(blob)
	if frame[0] != wireVersionSession || frame[1] != frameHandshake {
		t.Fatalf("frame header = %d %d", frame[0], frame[1])
	}
	got, err := DecodeHandshakeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatalf("blob = %v", got)
	}
	for _, bad := range [][]byte{nil, {wireVersionSession}, {wireVersionSession, frameHandshake}, {wireVersionSession, frameData, 1}, {wireVersion, frameHandshake, 1}} {
		if _, err := DecodeHandshakeFrame(bad); err == nil {
			t.Errorf("DecodeHandshakeFrame(%v) must fail", bad)
		}
	}
}

// TestWireFormatsAreDistinct pins down backward compatibility: each
// decoder accepts only its own version byte (and v3 frames additionally
// their kind byte), so a receiver can dispatch on the first byte and
// still read seed-era single-tuple datagrams.
func TestWireFormatsAreDistinct(t *testing.T) {
	sealer := testSealer(t)
	single, err := (&Envelope{From: "a", Tuple: data.NewTuple("p", data.Int(1)), Scheme: auth.SchemeRSA}).Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	batched, err := (&BatchEnvelope{From: "a", Scheme: auth.SchemeRSA,
		Items: []BatchItem{{Tuple: data.NewTuple("p", data.Int(1))}}}).Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	session := testSessionSealer(t)
	sessioned, err := (&SessionEnvelope{From: "a",
		Items: []BatchItem{{Tuple: data.NewTuple("p", data.Int(1))}}}).Encode(session, "b")
	if err != nil {
		t.Fatal(err)
	}
	if single[0] != wireVersion || batched[0] != wireVersionBatch || sessioned[0] != wireVersionSession {
		t.Fatalf("version bytes = %d, %d, %d", single[0], batched[0], sessioned[0])
	}
	others := map[string][]byte{"batch": batched, "session": sessioned}
	for name, b := range others {
		if _, err := DecodeEnvelope(b); err == nil {
			t.Errorf("single decoder must reject %s payloads", name)
		}
	}
	for name, b := range map[string][]byte{"single": single, "session": sessioned} {
		if _, err := DecodeBatchEnvelope(b); err == nil {
			t.Errorf("batch decoder must reject %s payloads", name)
		}
	}
	for name, b := range map[string][]byte{"single": single, "batch": batched} {
		if _, err := DecodeSessionEnvelope(b); err == nil {
			t.Errorf("session decoder must reject %s payloads", name)
		}
		if _, err := DecodeHandshakeFrame(b); err == nil {
			t.Errorf("handshake decoder must reject %s payloads", name)
		}
	}
	if _, err := DecodeEnvelope(single); err != nil {
		t.Errorf("v1 decode: %v", err)
	}
	if _, err := DecodeBatchEnvelope(batched); err != nil {
		t.Errorf("v2 decode: %v", err)
	}
	if _, err := DecodeSessionEnvelope(sessioned); err != nil {
		t.Errorf("v3 decode: %v", err)
	}
}

func TestRetractEnvelopeRoundTrip(t *testing.T) {
	sealer := testSealer(t)
	env := &RetractEnvelope{
		From:   "a",
		Scheme: auth.SchemeRSA,
		Tuples: []data.Tuple{
			data.NewTuple("bestPath", data.Str("a"), data.Str("c"), data.Strings("a", "b", "c"), data.Int(2)).Says("a"),
			data.NewTuple("path", data.Str("a"), data.Str("b"), data.Int(1)),
		},
	}
	b, err := env.Encode(sealer, "b")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRetractEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || len(got.Tuples) != 2 || !got.Tuples[0].Equal(env.Tuples[0]) || !got.Tuples[1].Equal(env.Tuples[1]) {
		t.Fatalf("decoded = %+v", got)
	}
	if err := got.Verify(sealer, "b"); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Tampered withdrawal must not verify: a forged retraction would let
	// an attacker delete another node's state.
	got.Tuples[0] = data.NewTuple("bestPath", data.Str("a"), data.Str("d"))
	if err := got.Verify(sealer, "b"); err == nil {
		t.Error("tampered retract envelope must fail verification")
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeRetractEnvelope(b[:cut]); err == nil {
			t.Fatalf("retract decode of %d/%d bytes must fail", cut, len(b))
		}
	}
}

func TestSessionRetractFrameRoundTrip(t *testing.T) {
	session := testSessionSealer(t)
	env := &SessionEnvelope{
		From:    "a",
		Retract: true,
		Items:   []BatchItem{{Tuple: data.NewTuple("p", data.Int(1))}},
	}
	b, err := env.Encode(session, "b")
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != wireVersionSession || b[1] != frameRetract {
		t.Fatalf("frame header = %v, want v3 retract kind", b[:2])
	}
	got, err := DecodeSessionEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Retract || len(got.Items) != 1 {
		t.Fatalf("decoded = %+v", got)
	}
	if err := got.Open(session, "b"); err != nil {
		t.Fatalf("open: %v", err)
	}
	// A retract frame replayed as a data frame (kind flipped) must fail
	// the MAC: the frame kind is authenticated.
	flipped := append([]byte{}, b...)
	flipped[1] = frameData
	if got, err := DecodeSessionEnvelope(flipped); err == nil {
		if err := got.Open(session, "b"); err == nil {
			t.Error("kind-flipped session frame must fail to open")
		}
	}
}

// FuzzDecodeEnvelope fuzzes every wire decoder (v1 singles, v2 batches,
// v3 session frames, v4 retract envelopes) with one corpus: malformed
// frames must error, never panic. CI runs the fuzzer for a fixed budget
// on every build.
func FuzzDecodeEnvelope(f *testing.F) {
	dir := auth.NewDeterministicDirectory(11)
	dir.SetKeyBits(512)
	for _, p := range []string{"a", "b"} {
		if err := dir.AddPrincipal(p, 1); err != nil {
			f.Fatal(err)
		}
	}
	sealer := auth.SignerSealer{S: auth.NewRSASigner(dir)}
	tu := data.NewTuple("path", data.Str("a"), data.Str("c"), data.Strings("a", "b", "c"), data.Int(2)).Says("a")

	env := &Envelope{From: "a", Tuple: tu, ProvMode: provenance.ModeCondensed, Prov: []byte{9, 8, 7}, Scheme: auth.SchemeRSA}
	if b, err := env.Encode(sealer, "b"); err == nil {
		f.Add(b)
	}
	batch := &BatchEnvelope{From: "a", ProvMode: provenance.ModeLocal, Scheme: auth.SchemeRSA,
		Items: []BatchItem{{Tuple: tu, Prov: []byte{1}}, {Tuple: data.NewTuple("q", data.Str("x"))}}}
	if b, err := batch.Encode(sealer, "b"); err == nil {
		f.Add(b)
	}
	retr := &RetractEnvelope{From: "a", Scheme: auth.SchemeRSA, Tuples: []data.Tuple{tu}}
	if b, err := retr.Encode(sealer, "b"); err == nil {
		f.Add(b)
	}

	session := auth.NewSessionSealer(dir, 0)
	if need, epoch, err := session.EnsureSession("a", "b"); err == nil && need {
		if frame, err := session.SealHandshake("a", "b", epoch); err == nil {
			f.Add(EncodeHandshakeFrame(frame))
			if _, err := session.AcceptHandshake("b", frame); err != nil {
				f.Fatal(err)
			}
		}
	}
	sess := &SessionEnvelope{From: "a", ProvMode: provenance.ModeCondensed,
		Items: []BatchItem{{Tuple: tu, Prov: []byte{4}}}}
	if b, err := sess.Encode(session, "b"); err == nil {
		f.Add(b)
	}
	sessRetr := &SessionEnvelope{From: "a", Retract: true, Items: []BatchItem{{Tuple: tu}}}
	if b, err := sessRetr.Encode(session, "b"); err == nil {
		f.Add(b)
	}
	// A v1 envelope whose tuple argument is 64 nested {KindList, 1}
	// headers: past the codec's depth bound, so an error, not a recursion.
	tooDeep := &Envelope{From: "a", Tuple: data.NewTuple("p", deepList(64)), Scheme: auth.SchemeRSA}
	if b, err := tooDeep.Encode(sealer, "b"); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0})
	f.Add([]byte{3, 1})
	f.Add([]byte{3, 2, 0})
	f.Add([]byte{4, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		// Every decoder must return a value or an error — never panic —
		// on arbitrary input. Decoded envelopes must also survive
		// re-encoding their authenticated prefix (Verify/Open walk it).
		if env, err := DecodeEnvelope(b); err == nil {
			_ = env.Verify(sealer, "b")
		}
		if env, err := DecodeBatchEnvelope(b); err == nil {
			_ = env.Verify(sealer, "b")
		}
		if env, err := DecodeSessionEnvelope(b); err == nil {
			_ = env.Open(session, "b")
		}
		if env, err := DecodeRetractEnvelope(b); err == nil {
			_ = env.Verify(sealer, "b")
		}
		_, _ = DecodeHandshakeFrame(b)
	})
}
