package auth

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// TestSessionLinksInParallel seals and opens on six links at once, one
// goroutine per link, as the scheduler's tasks do: each session's keyed
// MAC is used by one goroutine, and the sealer's maps by all of them.
func TestSessionLinksInParallel(t *testing.T) {
	s := NewSessionSealer(sealerDir(t), 0)
	var links []link
	for _, src := range []string{"a", "b", "c"} {
		for _, dst := range []string{"a", "b", "c"} {
			if src != dst {
				handshake(t, s, src, dst)
				links = append(links, link{src, dst})
			}
		}
	}
	errs := make(chan error, len(links))
	for _, l := range links {
		go func() {
			for i := range 200 {
				payload := []byte(fmt.Sprintf("%s->%s #%d", l.src, l.dst, i))
				tag, err := s.Seal(l.src, l.dst, payload)
				if err == nil {
					err = s.Open(l.src, l.dst, payload, tag)
				}
				if err == nil && s.Open(l.src, l.dst, payload[1:], tag) == nil {
					err = fmt.Errorf("%s->%s: a shortened payload opened", l.src, l.dst)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range links {
		if err := <-errs; err != nil {
			t.Error(err)
		}
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

// FuzzSessionOpen interleaves valid and corrupted envelopes on two links
// into b across rekeys (RekeyRounds 1): every valid envelope opens, every
// corrupted one is rejected, and nothing panics. Each session keeps one
// keyed MAC that every Seal and Open resets, so state one call left
// behind would make the next valid envelope fail to open.
//
// script drives it one byte per step: bit 0 rekeys first (a round and a
// handshake on each link), bit 1 picks the link, and bits 2–3 pick what
// follows the seal: open it; open it with a tag bit flipped, then intact;
// open it with a payload bit flipped, then intact; or reopen an earlier
// envelope, which opens only in its epoch and the one after, and never on
// the other link. The remaining bits and the step index pick the flipped
// bit and the earlier envelope.
func FuzzSessionOpen(f *testing.F) {
	dir := sealerDir(f)
	f.Add([]byte("payload"), []byte{0, 2, 4, 6, 8, 10, 12, 14})
	f.Add([]byte("x"), []byte{1, 12, 3, 14, 1, 13, 5, 0x2c, 0xfe, 0x8c})
	f.Add([]byte{}, []byte{0x44, 0x49, 0x0f, 0x0d, 0x81, 0xc8, 0x7b})
	f.Fuzz(func(t *testing.T, payload, script []byte) {
		if len(script) > 64 {
			script = script[:64] // a rekey costs four RSA operations per link
		}
		links := [2]link{{"a", "b"}, {"c", "b"}}
		type sealed struct {
			link         int
			payload, tag []byte
			epoch        uint64
		}
		type inbound struct {
			cur, prev uint64
			hasPrev   bool
		}
		var in [2]*inbound
		var log []sealed
		s := NewSessionSealer(dir, 1)
		rekey := func() {
			s.BeginRound()
			for i, l := range links {
				need, epoch, err := s.EnsureSession(l.src, l.dst)
				if err != nil {
					t.Fatal(err)
				}
				if !need {
					continue
				}
				frame, err := s.SealHandshake(l.src, l.dst, epoch)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.AcceptHandshake(l.dst, frame); err != nil {
					t.Fatal(err)
				}
				switch {
				case in[i] == nil:
					in[i] = &inbound{cur: epoch}
				case epoch > in[i].cur:
					in[i].prev, in[i].hasPrev, in[i].cur = in[i].cur, true, epoch
				}
			}
		}
		open := func(li int, p, tag []byte, want bool, what string) {
			t.Helper()
			l := links[li]
			if err := s.Open(l.src, l.dst, p, tag); (err == nil) != want {
				t.Fatalf("%s on %s->%s: open err = %v, want success %v", what, l.src, l.dst, err, want)
			}
		}
		flip := func(b []byte, at, bit int) []byte {
			out := append([]byte(nil), b...)
			out[at%len(out)] ^= 1 << (bit % 8)
			return out
		}
		rekey()
		for i, op := range script {
			if op&1 != 0 {
				rekey()
			}
			li := int(op>>1) & 1
			p := append(append([]byte(nil), payload...), byte(i))
			tag, err := s.Seal(links[li].src, links[li].dst, p)
			if err != nil {
				t.Fatal(err)
			}
			epoch, _ := binary.Uvarint(tag)
			switch op >> 2 & 3 {
			case 0:
				open(li, p, tag, true, "fresh envelope")
			case 1:
				open(li, p, flip(tag, i, int(op>>4)), false, "flipped tag bit")
				open(li, p, tag, true, "intact after a flipped tag")
			case 2:
				open(li, flip(p, int(op>>4), i), tag, false, "flipped payload bit")
				open(li, p, tag, true, "intact after a flipped payload")
			case 3:
				if len(log) > 0 {
					old := log[(int(op>>4)+i)%len(log)]
					cur := in[old.link]
					open(old.link, old.payload, old.tag, old.epoch == cur.cur || cur.hasPrev && old.epoch == cur.prev, "earlier envelope")
					open(1-old.link, old.payload, old.tag, false, "earlier envelope on the other link")
				}
				open(li, p, tag, true, "fresh envelope after an earlier one")
			}
			log = append(log, sealed{li, p, tag, epoch})
		}
	})
}
