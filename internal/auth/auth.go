// Package auth implements the security principals and the "says"
// authentication operator of SeNDlog (paper §2.2).
//
// The paper notes that the implementation of says depends on the threat
// model: "in a hostile world, says may require digital signatures, while in
// a more benign world, says may simply append a cleartext principal header
// to a message — and this will of course be cheaper." This package provides
// exactly that spectrum as Signer implementations:
//
//   - None: cleartext principal header, zero cryptographic cost;
//   - HMAC: shared-secret MACs, cheap symmetric authentication;
//   - RSA:  RSA signatures over SHA-256 digests, the scheme used in the
//     paper's evaluation (OpenSSL-signed tuples in modified P2); one
//     signature covers everything a principal says in one call (tree.go).
//
// It also maintains the principal directory: names, security levels (for
// the multi-level says of §2.2 and quantifiable provenance of §4.5), and
// key material.
package auth

import (
	"crypto"
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sort"
	"sync"
)

// Scheme identifies a says implementation.
type Scheme uint8

// Supported says schemes, from cheapest to most hostile-world.
// SchemeSession is the amortized hostile world: an RSA handshake per
// (src,dst) link, then HMAC session MACs per envelope (see SessionSealer).
const (
	SchemeNone Scheme = iota
	SchemeHMAC
	SchemeRSA
	SchemeSession
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeHMAC:
		return "hmac"
	case SchemeRSA:
		return "rsa"
	case SchemeSession:
		return "session"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Errors returned by verification.
var (
	ErrBadSignature     = errors.New("auth: signature verification failed")
	ErrUnknownPrincipal = errors.New("auth: unknown principal")
)

// Signer implements the says operator for one scheme: it authenticates a
// payload as asserted by a principal and verifies such assertions.
type Signer interface {
	// Scheme identifies the implementation.
	Scheme() Scheme
	// Sign returns an authentication tag binding payload to principal.
	Sign(principal string, payload []byte) ([]byte, error)
	// Verify checks that tag authenticates payload as said by principal.
	Verify(principal string, payload, tag []byte) error
}

// --- None ---

// NoneSigner is the benign-world says: a cleartext principal header and no
// cryptography. Verification always succeeds.
type NoneSigner struct{}

// Scheme returns SchemeNone.
func (NoneSigner) Scheme() Scheme { return SchemeNone }

// Sign returns an empty tag.
func (NoneSigner) Sign(string, []byte) ([]byte, error) { return nil, nil }

// Verify accepts everything.
func (NoneSigner) Verify(string, []byte, []byte) error { return nil }

// --- HMAC ---

// HMACSigner authenticates with per-principal HMAC-SHA256 keys derived
// from a deployment-wide master secret. It models a benign-but-not-open
// world where principals share pairwise trust in the infrastructure.
type HMACSigner struct {
	master []byte
}

// NewHMACSigner creates an HMAC signer from a master secret.
func NewHMACSigner(master []byte) *HMACSigner {
	cp := make([]byte, len(master))
	copy(cp, master)
	return &HMACSigner{master: cp}
}

// Scheme returns SchemeHMAC.
func (s *HMACSigner) Scheme() Scheme { return SchemeHMAC }

func (s *HMACSigner) key(principal string) []byte {
	mac := hmac.New(sha256.New, s.master)
	mac.Write([]byte("key:"))
	mac.Write([]byte(principal))
	return mac.Sum(nil)
}

// Sign returns HMAC-SHA256(key_principal, payload).
func (s *HMACSigner) Sign(principal string, payload []byte) ([]byte, error) {
	mac := hmac.New(sha256.New, s.key(principal))
	mac.Write(payload)
	return mac.Sum(nil), nil
}

// Verify recomputes and compares the MAC in constant time.
func (s *HMACSigner) Verify(principal string, payload, tag []byte) error {
	want, _ := s.Sign(principal, payload)
	if !hmac.Equal(want, tag) {
		return ErrBadSignature
	}
	return nil
}

// --- RSA ---

// DefaultRSABits is the default modulus size. The paper's 2008 evaluation
// used 1024-bit keys (OpenSSL 0.9.8b), which is also the smallest size
// modern crypto/rsa accepts by default; the default here is 2048 so that
// out-of-the-box runs use a currently-recommended size. Experiments
// reproducing the paper's numbers pass KeyBits/SetKeyBits(1024), and
// smaller ablation keys additionally need GODEBUG=rsa1024min=0.
const DefaultRSABits = 2048

// RSASigner implements the hostile-world says with the exporting
// principal's RSA private key (SHA-256 + PKCS#1 v1.5), checked with the
// corresponding public key on import, as in the paper's modified P2. What
// is signed is the root of a hash tree over everything the principal says
// in one call (tree.go): Sign is the one-leaf tree, a SignerSealer hands
// it a whole round's frames at once.
type RSASigner struct {
	dir *Directory
}

// NewRSASigner creates a signer backed by the directory's key material.
func NewRSASigner(dir *Directory) *RSASigner { return &RSASigner{dir: dir} }

// Scheme returns SchemeRSA.
func (s *RSASigner) Scheme() Scheme { return SchemeRSA }

// Sign signs payload alone and bound to no link: the one-leaf tree, whose
// tag is the bare signature.
func (s *RSASigner) Sign(principal string, payload []byte) ([]byte, error) {
	one := [1]Envelope{{Payload: payload}}
	err := s.signTree(principal, one[:])
	return one[0].Tag, err
}

// Verify checks a tag over a payload bound to no link.
func (s *RSASigner) Verify(principal string, payload, tag []byte) error {
	return s.verifyLeaf(principal, "", payload, tag)
}

// --- Directory ---

// Principal describes a security principal: its name and its security
// level for multi-level says and trust evaluation (§4.5). Higher levels are
// more trusted.
type Principal struct {
	Name  string
	Level int64
}

// Directory holds the deployment's principals: names, security levels, and
// RSA key pairs. It is safe for concurrent use.
type Directory struct {
	mu     sync.RWMutex
	levels map[string]int64
	keys   map[string]*rsa.PrivateKey
	bits   int
	rng    *detReader
}

// NewDeterministicDirectory creates a directory whose key generation draws
// from a seeded deterministic stream. The keys are NOT secure; determinism
// makes experiment runs reproducible and avoids re-generating key material
// between runs, exactly like reusing a test keystore.
func NewDeterministicDirectory(seed int64) *Directory {
	return &Directory{
		levels: make(map[string]int64),
		keys:   make(map[string]*rsa.PrivateKey),
		bits:   DefaultRSABits,
		rng:    newDetReader(seed),
	}
}

// SetKeyBits overrides the RSA modulus size for subsequently added
// principals (for ablation experiments).
func (d *Directory) SetKeyBits(bits int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bits = bits
}

// AddPrincipal registers a principal with a security level, generating its
// key pair. Re-adding an existing principal only updates its level. The
// directory's first key signs a fixed digest before it is kept, so a key
// size crypto/rsa refuses to sign with (below 1024 bits unless
// GODEBUG=rsa1024min=0) fails here, before the other principals' keys are
// generated, not at the first seal.
func (d *Directory) AddPrincipal(name string, level int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.levels[name] = level
	if _, ok := d.keys[name]; ok {
		return nil
	}
	key, err := generateKeyFromPrimes(d.rng, d.bits)
	if err != nil {
		return fmt.Errorf("auth: generating key for %q: %w", name, err)
	}
	if len(d.keys) == 0 {
		probe := sha256.Sum256([]byte("provnet-key-probe"))
		if _, err := rsa.SignPKCS1v15(nil, key, crypto.SHA256, probe[:]); err != nil {
			return fmt.Errorf("auth: signing with %q's %d-bit key: %w", name, d.bits, err)
		}
	}
	d.keys[name] = key
	return nil
}

// generateKeyFromPrimes builds an RSA key pair from primes drawn
// deterministically from rng, bypassing rsa.GenerateKey's intentional
// nondeterminism (randutil.MaybeReadByte, which crypto/rand.Prime also
// applies). Used only for reproducible experiment keystores.
func generateKeyFromPrimes(rng io.Reader, bits int) (*rsa.PrivateKey, error) {
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for {
		p, err := detPrime(rng, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := detPrime(rng, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue
		}
		key := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: n, E: int(e.Int64())},
			D:         d,
			Primes:    []*big.Int{p, q},
		}
		key.Precompute()
		if key.Validate() != nil {
			continue
		}
		return key, nil
	}
}

// detPrime draws candidates from rng until one passes Baillie–PSW
// (ProbablyPrime(0)): the directory's keys are not secure, so it skips
// crypto/rand.Prime's 20 Miller–Rabin rounds, and unlike rand.Prime it
// consumes a fixed number of bytes per candidate, so the same stream
// yields the same prime. A candidate with an odd prime factor below
// sieveLimit is skipped first: it is composite, so ProbablyPrime would
// have rejected it too and the primes found are the same.
func detPrime(rng io.Reader, bits int) (*big.Int, error) {
	if bits < 16 {
		return nil, errors.New("auth: prime size too small")
	}
	bytes := make([]byte, (bits+7)/8)
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	var p, q, r big.Int
	for {
		if _, err := io.ReadFull(rng, bytes); err != nil {
			return nil, err
		}
		bytes[0] &= uint8(int(1<<b) - 1)
		bytes[0] |= 3 << (b - 2) // top two bits so p*q has full length
		bytes[len(bytes)-1] |= 1 // odd
		p.SetBytes(bytes)
		if !hasSmallFactor(&p, &q, &r) && p.ProbablyPrime(0) {
			return new(big.Int).Set(&p), nil
		}
	}
}

// sieveLimit bounds the primes detPrime trial-divides by. Sweeping it over
// 256–65536 for 512-bit primes put the fastest key generation at 4096:
// below, more composites reach Miller–Rabin; above, the divisions cost
// more than the rounds they save.
const sieveLimit = 4096

// sieveGroup is a run of consecutive odd primes whose product fits a
// uint64, so one multi-word division by the product yields a residue that
// each prime then divides with machine arithmetic.
type sieveGroup struct {
	product *big.Int
	primes  []uint64
}

// sieve holds the odd primes below sieveLimit in groups (≈ 100 of them).
var sieve = sieveGroups(sieveLimit)

func sieveGroups(limit int) []sieveGroup {
	composite := make([]bool, limit)
	var groups []sieveGroup
	var primes []uint64
	prod := uint64(1)
	flush := func() {
		groups = append(groups, sieveGroup{product: new(big.Int).SetUint64(prod), primes: primes})
		primes, prod = nil, 1
	}
	for n := 3; n < limit; n += 2 {
		if composite[n] {
			continue
		}
		for m := n * n; m < limit; m += 2 * n {
			composite[m] = true
		}
		if hi, _ := bits.Mul64(prod, uint64(n)); hi != 0 {
			flush()
		}
		prod *= uint64(n)
		primes = append(primes, uint64(n))
	}
	flush()
	return groups
}

// hasSmallFactor reports whether p, which must exceed sieveLimit, has an
// odd prime factor below it. q and r are scratch.
func hasSmallFactor(p, q, r *big.Int) bool {
	for _, g := range sieve {
		q.QuoRem(p, g.product, r)
		res := r.Uint64()
		for _, f := range g.primes {
			if res%f == 0 {
				return true
			}
		}
	}
	return false
}

// Level returns the security level of a principal (0 if unknown).
func (d *Directory) Level(name string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.levels[name]
}

// Principals returns all registered principals sorted by name.
func (d *Directory) Principals() []Principal {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Principal, 0, len(d.levels))
	for n, l := range d.levels {
		out = append(out, Principal{Name: n, Level: l})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (d *Directory) privateKey(name string) *rsa.PrivateKey {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.keys[name]
}

func (d *Directory) publicKey(name string) *rsa.PublicKey {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if k, ok := d.keys[name]; ok {
		return &k.PublicKey
	}
	return nil
}

// --- deterministic randomness for reproducible experiments ---

// detReader is a SHA-256-based deterministic byte stream. It is not a CSPRNG
// for production use; it exists so experiment key generation is reproducible.
// Reads happen under Directory.mu, so it takes no lock of its own.
type detReader struct {
	state   [32]byte
	buf     []byte
	counter uint64
}

func newDetReader(seed int64) *detReader {
	r := &detReader{}
	r.state = sha256.Sum256([]byte(fmt.Sprintf("provnet-det-seed-%d", seed)))
	return r
}

func (r *detReader) Read(p []byte) (int, error) {
	for len(r.buf) < len(p) {
		var block [40]byte
		copy(block[:32], r.state[:])
		for i := 0; i < 8; i++ {
			block[32+i] = byte(r.counter >> (8 * i))
		}
		r.counter++
		sum := sha256.Sum256(block[:])
		r.buf = append(r.buf, sum[:]...)
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}
