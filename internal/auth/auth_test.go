package auth

import (
	"bytes"
	"errors"
	"testing"
)

func TestSchemeString(t *testing.T) {
	if SchemeNone.String() != "none" || SchemeHMAC.String() != "hmac" || SchemeRSA.String() != "rsa" {
		t.Error("scheme names")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme should still render")
	}
}

func TestNoneSigner(t *testing.T) {
	var s NoneSigner
	tag, err := s.Sign("alice", []byte("payload"))
	if err != nil || len(tag) != 0 {
		t.Fatalf("Sign = %v, %v", tag, err)
	}
	if err := s.Verify("anyone", []byte("anything"), nil); err != nil {
		t.Fatal("None verify must accept")
	}
	if s.Scheme() != SchemeNone {
		t.Error("scheme")
	}
}

func TestHMACSigner(t *testing.T) {
	s := NewHMACSigner([]byte("master-secret"))
	payload := []byte("reachable(a,c)")
	tag, err := s.Sign("alice", payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify("alice", payload, tag); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Wrong principal, tampered payload, tampered tag all fail.
	if err := s.Verify("bob", payload, tag); err == nil {
		t.Error("wrong principal must fail")
	}
	if err := s.Verify("alice", []byte("reachable(a,b)"), tag); err == nil {
		t.Error("tampered payload must fail")
	}
	bad := append([]byte{}, tag...)
	bad[0] ^= 1
	if err := s.Verify("alice", payload, bad); err == nil {
		t.Error("tampered tag must fail")
	}
	// Distinct principals get distinct keys.
	tag2, _ := s.Sign("bob", payload)
	if bytes.Equal(tag, tag2) {
		t.Error("per-principal keys must differ")
	}
	// Master secret is copied, not aliased.
	master := []byte("secret2")
	s2 := NewHMACSigner(master)
	t1, _ := s2.Sign("p", payload)
	master[0] = 'X'
	t2, _ := s2.Sign("p", payload)
	if !bytes.Equal(t1, t2) {
		t.Error("mutating caller's master must not affect signer")
	}
}

func testDirectory(t *testing.T) *Directory {
	t.Helper()
	d := NewDeterministicDirectory(42)
	d.SetKeyBits(512) // small keys keep unit tests fast
	for _, p := range []string{"alice", "bob"} {
		if err := d.AddPrincipal(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestRSASignVerify(t *testing.T) {
	d := testDirectory(t)
	s := NewRSASigner(d)
	payload := []byte("path(a,c,[a,b,c],2)")
	tag, err := s.Sign("alice", payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(tag) != 64 { // 512-bit modulus
		t.Errorf("tag length = %d", len(tag))
	}
	if err := s.Verify("alice", payload, tag); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := s.Verify("bob", payload, tag); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong principal: %v", err)
	}
	if err := s.Verify("alice", []byte("tampered"), tag); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered payload: %v", err)
	}
	if _, err := s.Sign("mallory", payload); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("unknown signer: %v", err)
	}
	if err := s.Verify("mallory", payload, tag); !errors.Is(err, ErrUnknownPrincipal) {
		t.Errorf("unknown verifier: %v", err)
	}
}

func TestDirectoryLevels(t *testing.T) {
	d := testDirectory(t)
	if d.Level("alice") != 1 {
		t.Error("AddPrincipal's level")
	}
	if d.Level("nobody") != 0 {
		t.Error("unknown level should be 0")
	}
	ps := d.Principals()
	if len(ps) != 2 || ps[0].Name != "alice" || ps[1].Name != "bob" {
		t.Errorf("Principals = %v", ps)
	}
	// Re-adding keeps the key but updates the level.
	k1 := d.privateKey("alice")
	if err := d.AddPrincipal("alice", 9); err != nil {
		t.Fatal(err)
	}
	if d.privateKey("alice") != k1 {
		t.Error("re-add must not regenerate the key")
	}
	if d.Level("alice") != 9 {
		t.Error("re-add must update the level")
	}
}

func TestDeterministicDirectoryReproducible(t *testing.T) {
	d1 := NewDeterministicDirectory(7)
	d1.SetKeyBits(512)
	d2 := NewDeterministicDirectory(7)
	d2.SetKeyBits(512)
	if err := d1.AddPrincipal("n1", 1); err != nil {
		t.Fatal(err)
	}
	if err := d2.AddPrincipal("n1", 1); err != nil {
		t.Fatal(err)
	}
	if d1.privateKey("n1").D.Cmp(d2.privateKey("n1").D) != 0 {
		t.Error("same seed must yield same key")
	}
	d3 := NewDeterministicDirectory(8)
	d3.SetKeyBits(512)
	if err := d3.AddPrincipal("n1", 1); err != nil {
		t.Fatal(err)
	}
	if d1.privateKey("n1").D.Cmp(d3.privateKey("n1").D) == 0 {
		t.Error("different seeds must yield different keys")
	}
}

func TestDetReaderStream(t *testing.T) {
	r := newDetReader(1)
	a := make([]byte, 100)
	if n, err := r.Read(a); n != 100 || err != nil {
		t.Fatalf("read: %d, %v", n, err)
	}
	r2 := newDetReader(1)
	b1 := make([]byte, 40)
	b2 := make([]byte, 60)
	r2.Read(b1)
	r2.Read(b2)
	if !bytes.Equal(a, append(append([]byte{}, b1...), b2...)) {
		t.Error("stream must be independent of read chunking")
	}
}

func TestCrossSchemeTags(t *testing.T) {
	d := testDirectory(t)
	rsaS := NewRSASigner(d)
	hm := NewHMACSigner([]byte("m"))
	payload := []byte("x")
	hTag, _ := hm.Sign("alice", payload)
	if err := rsaS.Verify("alice", payload, hTag); err == nil {
		t.Error("an HMAC tag must not verify as RSA")
	}
}

func BenchmarkRSASign1024(b *testing.B) {
	d := NewDeterministicDirectory(1)
	d.SetKeyBits(1024)
	if err := d.AddPrincipal("p", 1); err != nil {
		b.Fatal(err)
	}
	s := NewRSASigner(d)
	payload := []byte("path(a,c,[a,b,c],2)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign("p", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSAVerify1024(b *testing.B) {
	d := NewDeterministicDirectory(1)
	d.SetKeyBits(1024)
	if err := d.AddPrincipal("p", 1); err != nil {
		b.Fatal(err)
	}
	s := NewRSASigner(d)
	payload := []byte("path(a,c,[a,b,c],2)")
	tag, _ := s.Sign("p", payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Verify("p", payload, tag); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHMACSign(b *testing.B) {
	s := NewHMACSigner([]byte("master"))
	payload := []byte("path(a,c,[a,b,c],2)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sign("p", payload)
	}
}
