package auth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// TestDeterministicKeysPinned pins the deterministic keystore: a hash over
// the moduli of a seed's first principals and the modulus of the one added
// after them, which also pins how far the stream has been read. Any change
// to how primes are drawn or tested must leave these values unchanged,
// since every signature and wire byte a seeded run emits follows from them.
func TestDeterministicKeysPinned(t *testing.T) {
	cases := []struct {
		seed      int64
		bits, n   int
		sum, next string
	}{
		{1000, 1024, 40,
			"a3e3a0c6cbc69b4cd189daafefcc29d6207593d81455620b9579face9864d10c",
			"af65f29ee08be7dad1063a0676d50441ce5f211995b476c5171f7429f404edbf" +
				"366dd9f5dd5e1d3a6d553a82fbd6e8f25959d2f7cf6b8775c822a4031c1b214d" +
				"e0ec54c1e7d38534cdfaafbb7d37231fddd9740379ebc5b56099bfec43102802" +
				"9f277503bc0113c310978f99d7d2973e15d544d06b3c925a02862c4e17edab21"},
		{1001, 1024, 40,
			"8e8475afff999cab1a7500299a2937c4642038ea82ae97750efe632b9c81ffad",
			"dae4e955769bf13fc7fc244f06551c6fbc06c9c2d54278b5428e72486bd6224a" +
				"0d364fe7b865590ea1aa7511ef6f1ed9cd8517811af2d996394d26716639f2b6" +
				"6c3884461f28f62381fa4407c7055c15d6518097d3b41e72c81831169e1ae354" +
				"ffe79496176ef7438a08caac97e3b60062655bcacfa8c81767a8bf40f84a5aab"},
		{7, 512, 12,
			"6204ef35d2534aaf695c8a22fd6539ea5afa2bf2d48bda5cd8af920f2d3f5a90",
			"c8797c9da118e3c2aa5082de85ac78503441a44976e3155a385d8e9eac043298" +
				"fa52253ac306be84e6b1c1f5b370e85d8657756a86d95bde7b71412dd3961205"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed=%d/bits=%d", c.seed, c.bits), func(t *testing.T) {
			d := NewDeterministicDirectory(c.seed)
			d.SetKeyBits(c.bits)
			h := sha256.New()
			for i := 0; i < c.n; i++ {
				name := fmt.Sprintf("n%d", i)
				if err := d.AddPrincipal(name, 1); err != nil {
					t.Fatal(err)
				}
				h.Write(d.publicKey(name).N.Bytes())
			}
			if err := d.AddPrincipal("next", 1); err != nil {
				t.Fatal(err)
			}
			sum := hex.EncodeToString(h.Sum(nil))
			next := d.publicKey("next").N.Text(16)
			if sum != c.sum {
				t.Errorf("moduli of %d principals hash to %s, want %s", c.n, sum, c.sum)
			}
			if next != c.next {
				t.Errorf("next modulus = %s, want %s", next, c.next)
			}
		})
	}
}

// TestSieveRejectsOnlyComposites checks the table detPrime trial-divides by
// (exactly the odd primes below sieveLimit, grouped under their products)
// and that a rejection is exactly a candidate one of them divides, which
// ProbablyPrime(20) then rejects as well.
func TestSieveRejectsOnlyComposites(t *testing.T) {
	var table []int64
	for _, g := range sieve {
		prod := big.NewInt(1)
		for _, f := range g.primes {
			table = append(table, int64(f))
			prod.Mul(prod, new(big.Int).SetUint64(f))
		}
		if prod.Cmp(g.product) != 0 {
			t.Fatalf("group %v has product %v, want %v", g.primes, g.product, prod)
		}
	}
	var want []int64
	for n := int64(3); n < sieveLimit; n += 2 {
		if big.NewInt(n).ProbablyPrime(20) {
			want = append(want, n)
		}
	}
	if !slices.Equal(table, want) {
		t.Fatalf("sieve holds %d primes %v…, want the %d odd primes below %d", len(table), table[:min(len(table), 8)], len(want), sieveLimit)
	}

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64)
	var p, q, r, rem big.Int
	rejected := 0
	for i := 0; i < 10000; i++ {
		rng.Read(buf)
		buf[0] |= 0x80
		buf[len(buf)-1] |= 1
		p.SetBytes(buf)
		divides := false
		for _, f := range table {
			if rem.Mod(&p, big.NewInt(f)).Sign() == 0 {
				divides = true
				break
			}
		}
		got := hasSmallFactor(&p, &q, &r)
		if got != divides {
			t.Fatalf("hasSmallFactor(%x) = %v, trial division says %v", &p, got, divides)
		}
		if got {
			rejected++
			if p.ProbablyPrime(20) {
				t.Fatalf("sieve rejected %x, which ProbablyPrime(20) accepts", &p)
			}
		}
	}
	t.Logf("sieve rejected %d of 10000 odd 512-bit candidates", rejected)
}
