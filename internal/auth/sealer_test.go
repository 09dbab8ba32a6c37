package auth

import (
	"bytes"
	"errors"
	"testing"
)

func sealerDir(t testing.TB) *Directory {
	t.Helper()
	d := NewDeterministicDirectory(21)
	d.SetKeyBits(512)
	for _, p := range []string{"a", "b", "c"} {
		if err := d.AddPrincipal(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// handshake performs the full src→dst handshake if the link needs one,
// reporting whether it did and at which key epoch.
func handshake(t *testing.T, s *SessionSealer, src, dst string) (need bool, epoch uint64) {
	t.Helper()
	need, epoch, err := s.EnsureSession(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !need {
		return false, epoch
	}
	frame, err := s.SealHandshake(src, dst, epoch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AcceptHandshake(dst, frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != src {
		t.Fatalf("accepted handshake from %q, want %q", got, src)
	}
	return true, epoch
}

func TestSignerSealerAdaptsSigner(t *testing.T) {
	d := sealerDir(t)
	s := SignerSealer{S: NewRSASigner(d)}
	if s.Scheme() != SchemeRSA {
		t.Fatalf("scheme = %v", s.Scheme())
	}
	tag, err := s.Seal("a", "b", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open("a", "b", []byte("payload"), tag); err != nil {
		t.Errorf("open: %v", err)
	}
	if err := s.Open("a", "c", []byte("payload"), tag); !errors.Is(err, ErrBadSignature) {
		t.Errorf("a tag sealed for b opened at c: %v", err)
	}
	if err := s.Open("b", "b", []byte("payload"), tag); err == nil {
		t.Error("wrong principal must fail")
	}
	// The none and HMAC signers keep their per-envelope tags and ignore
	// the link.
	h := SignerSealer{S: NewHMACSigner([]byte("m"))}
	tag, err = h.Seal("a", "b", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := h.S.Sign("a", []byte("payload")); !bytes.Equal(tag, want) {
		t.Errorf("HMAC seal = %x, want the signer's tag %x", tag, want)
	}
	if err := h.Open("a", "c", []byte("payload"), tag); err != nil {
		t.Errorf("HMAC open: %v", err)
	}
}

func TestSessionSealRoundTrip(t *testing.T) {
	s := NewSessionSealer(sealerDir(t), 0)
	handshake(t, s, "a", "b")
	payload := []byte("the tuple bytes")
	tag, err := s.Seal("a", "b", payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open("a", "b", payload, tag); err != nil {
		t.Fatalf("open: %v", err)
	}
	// Second EnsureSession on the same link needs no new handshake.
	need, _, err := s.EnsureSession("a", "b")
	if err != nil || need {
		t.Fatalf("EnsureSession again: need=%v err=%v", need, err)
	}
	hs, acc, sealed, opened := s.SessionStats()
	if hs != 1 || acc != 1 || sealed != 1 || opened != 1 {
		t.Errorf("stats = %d/%d/%d/%d", hs, acc, sealed, opened)
	}
}

func TestSessionOpenWithoutHandshakeFails(t *testing.T) {
	s := NewSessionSealer(sealerDir(t), 0)
	// Sender installs its half, but the handshake frame never reaches b.
	if _, _, err := s.EnsureSession("a", "b"); err != nil {
		t.Fatal(err)
	}
	tag, err := s.Seal("a", "b", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open("a", "b", []byte("x"), tag); !errors.Is(err, ErrNoSession) {
		t.Errorf("open without handshake = %v, want ErrNoSession", err)
	}
}

func TestSessionTamperDetection(t *testing.T) {
	s := NewSessionSealer(sealerDir(t), 0)
	handshake(t, s, "a", "b")
	tag, err := s.Seal("a", "b", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open("a", "b", []byte("tampered"), tag); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered payload = %v, want ErrBadSignature", err)
	}
	// A tag from the a→b link must not open on another link.
	handshake(t, s, "c", "b")
	if err := s.Open("c", "b", []byte("payload"), tag); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-link tag = %v, want ErrBadSignature", err)
	}
}

func TestSessionHandshakeCorruption(t *testing.T) {
	s := NewSessionSealer(sealerDir(t), 0)
	_, epoch, err := s.EnsureSession("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := s.SealHandshake("a", "b", epoch)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must error cleanly, never panic.
	for cut := 0; cut < len(frame); cut++ {
		if _, err := s.AcceptHandshake("b", frame[:cut]); err == nil {
			t.Fatalf("truncated handshake %d/%d must fail", cut, len(frame))
		}
	}
	// Flipping any byte must fail (signature covers everything).
	for i := 0; i < len(frame); i++ {
		mut := append([]byte{}, frame...)
		mut[i] ^= 0x40
		if _, err := s.AcceptHandshake("b", mut); err == nil {
			t.Fatalf("corrupted handshake byte %d must fail", i)
		}
	}
	// Wrong addressee must reject.
	if _, err := s.AcceptHandshake("c", frame); !errors.Is(err, ErrBadHandshake) {
		t.Errorf("misaddressed handshake = %v, want ErrBadHandshake", err)
	}
	// The intact frame still accepts after all that.
	if _, err := s.AcceptHandshake("b", frame); err != nil {
		t.Errorf("intact handshake: %v", err)
	}
}

func TestSessionRekey(t *testing.T) {
	s := NewSessionSealer(sealerDir(t), 2) // rekey every 2 rounds
	s.BeginRound()                         // round 1, epoch 0
	handshake(t, s, "a", "b")
	// Record the epoch-0 handshake for the replay check below.
	replay, err := s.SealHandshake("a", "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	oldTag, err := s.Seal("a", "b", []byte("old"))
	if err != nil {
		t.Fatal(err)
	}

	s.BeginRound() // round 2, epoch 0: same key
	if need, _, err := s.EnsureSession("a", "b"); err != nil || need {
		t.Fatalf("mid-epoch EnsureSession: need=%v err=%v", need, err)
	}

	s.BeginRound() // round 3, epoch 1: rekey
	if need, epoch := handshake(t, s, "a", "b"); !need || epoch != 1 {
		t.Fatalf("after rekey: handshake needed=%v at epoch %d, want a fresh one at epoch 1", need, epoch)
	}
	newTag, err := s.Seal("a", "b", []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open("a", "b", []byte("new"), newTag); err != nil {
		t.Fatalf("open at new epoch: %v", err)
	}
	// The previous epoch's envelope still opens across the boundary.
	if err := s.Open("a", "b", []byte("old"), oldTag); err != nil {
		t.Fatalf("open at previous epoch: %v", err)
	}
	// Replaying the recorded epoch-0 handshake must not roll the link
	// back to the retired key.
	if _, err := s.AcceptHandshake("b", replay); !errors.Is(err, ErrBadHandshake) {
		t.Errorf("epoch-0 handshake replay after rekey = %v, want ErrBadHandshake", err)
	}
	if err := s.Open("a", "b", []byte("new"), newTag); err != nil {
		t.Fatalf("current epoch must survive the replay attempt: %v", err)
	}
	hs, _, _, _ := s.SessionStats()
	if hs != 3 {
		t.Errorf("handshakes sealed = %d, want 3 (initial + replay capture + rekey)", hs)
	}
}

func TestSessionUnknownPrincipals(t *testing.T) {
	s := NewSessionSealer(sealerDir(t), 0)
	if _, _, err := s.EnsureSession("nobody", "b"); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("unknown src = %v", err)
	}
	if _, err := s.Seal("a", "b", []byte("x")); !errors.Is(err, ErrNoSession) {
		t.Errorf("seal before EnsureSession = %v", err)
	}
	if _, _, err := s.EnsureSession("a", "ghost"); err != nil {
		t.Fatal(err) // dst key lookup happens at SealHandshake time
	}
	if _, err := s.SealHandshake("a", "ghost", 0); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("unknown dst = %v", err)
	}
}
