// Link-level transport security: the Sealer interface and its session
// implementation.
//
// The Signer interface implements the says operator per principal; Sealer
// lifts it to the transport: an envelope travelling a directed (src,dst)
// link is sealed on export and opened on import, and everything a sender
// ships in one round is sealed by one SealBatch call. The none/HMAC/RSA
// says schemes become Sealers through SignerSealer. Under RSA that call is
// one signature over a hash tree of the round's envelopes, each leaf bound
// to its link (tree.go); none and HMAC seal each envelope on its own and
// ignore the link. SessionSealer moves the RSA cost off the rounds
// altogether: one RSA handshake per link establishes a shared session
// key, and every subsequent envelope is sealed with a cheap HMAC under
// that key, re-handshaking every RekeyRounds scheduler rounds.
package auth

import (
	"crypto"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"
	"sync/atomic"

	"provnet/internal/data"
)

// Envelope is one payload of a batch: what the sender says to Dst and,
// once sealed, the Tag that authenticates it on that link.
type Envelope struct {
	Dst     string
	Payload []byte
	Tag     []byte
}

// Sealer seals and opens envelopes travelling a directed (src,dst) link.
// Implementations must be safe for concurrent use across links: the
// parallel scheduler seals and opens from many goroutines at once, each
// link's envelopes sealed on its sender's task and opened on its
// receiver's.
type Sealer interface {
	// Scheme identifies the implementation.
	Scheme() Scheme
	// Seal returns a tag authenticating payload as sent by src to dst:
	// SealBatch with one envelope.
	Seal(src, dst string, payload []byte) ([]byte, error)
	// SealBatch seals what src sends in one round, setting every
	// envelope's Tag. signs is the number of says operations the call
	// performed — one for a whole RSA batch, one per envelope where
	// sealing together saves nothing, none under a session. buf is the
	// caller's to lend: an implementation may cut the tags from it,
	// appending from buf[:0], and returns it, grown, as tags — so the
	// tags are valid only until the caller reuses tags.
	SealBatch(src string, batch []Envelope, buf []byte) (tags []byte, signs int, err error)
	// Open checks that tag authenticates payload on the src→dst link.
	Open(src, dst string, payload, tag []byte) error
}

// SignerSealer adapts a per-principal Signer to the link-level Sealer
// interface; it is how the three pre-session says schemes plug into the
// transport stack. An RSASigner signs a batch once, over the root of its
// hash tree, and binds every envelope to its destination: a frame sealed
// for b does not open at c. A MAC costs what a hash costs, so the none
// and HMAC signers sign each envelope alone, as said by src to anyone.
type SignerSealer struct {
	S Signer
}

// Scheme returns the wrapped signer's scheme.
func (w SignerSealer) Scheme() Scheme { return w.S.Scheme() }

// Seal seals payload alone.
func (w SignerSealer) Seal(src, dst string, payload []byte) ([]byte, error) {
	one := [1]Envelope{{Dst: dst, Payload: payload}}
	_, _, err := w.SealBatch(src, one[:], nil)
	return one[0].Tag, err
}

// SealBatch signs the batch as src. The signers allocate their own tags,
// so buf comes back untouched.
func (w SignerSealer) SealBatch(src string, batch []Envelope, buf []byte) ([]byte, int, error) {
	if r, ok := w.S.(*RSASigner); ok {
		return buf, min(1, len(batch)), r.signTree(src, batch)
	}
	for i := range batch {
		var err error
		if batch[i].Tag, err = w.S.Sign(src, batch[i].Payload); err != nil {
			return buf, 0, err
		}
	}
	return buf, len(batch), nil
}

// Open verifies payload against src's identity and, under RSA, against
// the link it arrived on.
func (w SignerSealer) Open(src, dst string, payload, tag []byte) error {
	if r, ok := w.S.(*RSASigner); ok {
		return r.verifyLeaf(src, dst, payload, tag)
	}
	return w.S.Verify(src, payload, tag)
}

// Session errors.
var (
	// ErrNoSession reports a seal or open on a link without an
	// established session (no handshake seen, or a stale epoch).
	ErrNoSession = errors.New("auth: no session established for link")
	// ErrBadHandshake reports a malformed or unverifiable handshake
	// frame.
	ErrBadHandshake = errors.New("auth: bad handshake")
)

// sessionKeySize is the HMAC-SHA256 session key length in bytes.
const sessionKeySize = 32

// SessionSealer implements the amortized hostile-world says: an RSA
// handshake once per directed (src,dst) link transports a session key
// (signed by the source, encrypted to the destination), after which every
// envelope on the link is sealed with HMAC-SHA256 under that key. The
// scheduler calls BeginRound once per round; with RekeyRounds > 0 the
// epoch advances every RekeyRounds rounds and the next export on each
// link re-handshakes under a fresh key.
//
// Sender and receiver state are kept strictly apart (outbound vs inbound
// sessions), exactly as two processes would: a receiver can open a
// session envelope only after accepting the corresponding handshake
// frame, even inside this in-process simulator.
//
// Each session keys its HMAC once, when the key is installed, and resets
// it before every envelope. The sealer is safe for concurrent use across
// links, but one link's outbound half must be used by one goroutine at a
// time, and so must its inbound half: the scheduler seals a link's frames
// on its sender's export task and opens them on its receiver's import
// task, and resupplies between rounds.
type SessionSealer struct {
	dir         *Directory
	rekeyRounds int

	mu    sync.Mutex
	round int64
	epoch uint64
	out   map[link]*outSession
	in    map[link]*inSession

	handshakes atomic.Int64 // handshake frames sealed (RSA sign + encrypt)
	accepted   atomic.Int64 // handshake frames accepted (RSA verify + decrypt)
	sealed     atomic.Int64 // session-MAC seal operations
	opened     atomic.Int64 // session-MAC open operations
}

// link names a directed (src,dst) link.
type link struct{ src, dst string }

// outSession is the sender half of a link session: the key the handshake
// transports and the HMAC keyed with it.
type outSession struct {
	epoch uint64
	key   []byte
	mac   hash.Hash
}

// inSession is the receiver half: the current key's HMAC plus the
// previous epoch's, so envelopes in flight across a rekey boundary still
// open. sum is Open's scratch for the computed MAC.
type inSession struct {
	epoch     uint64
	mac       hash.Hash
	prevEpoch uint64
	prevMAC   hash.Hash
	sum       [sha256.Size]byte
}

// NewSessionSealer creates a session sealer over the directory's RSA key
// material. rekeyRounds > 0 rotates session keys every that many rounds;
// 0 keeps one key per link for the lifetime of the run.
func NewSessionSealer(dir *Directory, rekeyRounds int) *SessionSealer {
	return &SessionSealer{
		dir:         dir,
		rekeyRounds: rekeyRounds,
		out:         make(map[link]*outSession),
		in:          make(map[link]*inSession),
	}
}

// Scheme returns SchemeSession.
func (s *SessionSealer) Scheme() Scheme { return SchemeSession }

// BeginRound advances the scheduler round, rotating the epoch every
// RekeyRounds rounds.
func (s *SessionSealer) BeginRound() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.round++
	if s.rekeyRounds > 0 {
		s.epoch = uint64((s.round - 1) / int64(s.rekeyRounds))
	}
}

// deriveSessionKey derives the src→dst session key for an epoch from the
// source's private key material. Derivation (rather than drawing from a
// shared random stream) keeps key bytes independent of scheduler
// interleaving, so parallel and sequential runs ship identical traffic.
func deriveSessionKey(secret []byte, src, dst string, epoch uint64) []byte {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte("link:"))
	mac.Write([]byte(src))
	mac.Write([]byte{0})
	mac.Write([]byte(dst))
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], epoch)
	mac.Write(e[:])
	return mac.Sum(nil)
}

// EnsureSession installs (or refreshes, after a rekey) the outbound
// session for the src→dst link at the current epoch. It reports whether a
// handshake frame must be shipped before the next data envelope, and the
// epoch that frame must carry. Key derivation here is cheap symmetric
// work, done only when a key is installed; the RSA cost lives in
// SealHandshake, on the sealing path.
func (s *SessionSealer) EnsureSession(src, dst string) (needHandshake bool, epoch uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := link{src, dst}
	if sess, ok := s.out[k]; ok && sess.epoch == s.epoch {
		return false, s.epoch, nil
	}
	secret := s.dir.sessionSecret(src)
	if secret == nil {
		return false, 0, fmt.Errorf("%w: %q", ErrUnknownPrincipal, src)
	}
	key := deriveSessionKey(secret, src, dst, s.epoch)
	s.out[k] = &outSession{epoch: s.epoch, key: key, mac: hmac.New(sha256.New, key)}
	return true, s.epoch, nil
}

// ResetOutbound forgets every outbound session, forcing a fresh
// handshake on each link's next export. The network calls it before a
// soft-state resupply: a restarted peer lost its inbound session keys
// with its tables, so data sealed under the old sessions would be
// dropped as unopenable.
func (s *SessionSealer) ResetOutbound() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out = make(map[link]*outSession)
}

// SealHandshake builds the handshake frame for the src→dst link at the
// given epoch: the session key encrypted to dst's public key, signed by
// src. This is the per-link RSA cost the session scheme amortizes.
func (s *SessionSealer) SealHandshake(src, dst string, epoch uint64) ([]byte, error) {
	s.mu.Lock()
	sess, ok := s.out[link{src, dst}]
	s.mu.Unlock()
	if !ok || sess.epoch != epoch {
		return nil, fmt.Errorf("%w: %s->%s epoch %d", ErrNoSession, src, dst, epoch)
	}
	pub := s.dir.publicKey(dst)
	if pub == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPrincipal, dst)
	}
	wrapped, err := rsa.EncryptPKCS1v15(rand.Reader, pub, sess.key)
	if err != nil {
		return nil, fmt.Errorf("auth: wrapping session key %s->%s: %w", src, dst, err)
	}
	b := data.AppendString(nil, src)
	b = data.AppendString(b, dst)
	b = binary.AppendUvarint(b, epoch)
	b = data.AppendBytes(b, wrapped)
	key := s.dir.privateKey(src)
	if key == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPrincipal, src)
	}
	digest := sha256.Sum256(b)
	sig, err := rsa.SignPKCS1v15(nil, key, crypto.SHA256, digest[:])
	if err != nil {
		return nil, fmt.Errorf("auth: signing handshake %s->%s: %w", src, dst, err)
	}
	s.handshakes.Add(1)
	return data.AppendBytes(b, sig), nil
}

// AcceptHandshake verifies a handshake frame addressed to self and
// installs the inbound session it transports, keeping the previous
// epoch's key so in-flight envelopes across a rekey boundary still open.
// Frames carrying an epoch older than the installed one are rejected —
// replaying a recorded pre-rekey handshake must not roll the link back
// to a retired key. It returns the source principal of the accepted
// handshake.
func (s *SessionSealer) AcceptHandshake(self string, frame []byte) (string, error) {
	src, n1, err := data.DecodeString(frame)
	if err != nil {
		return "", fmt.Errorf("%w: src: %v", ErrBadHandshake, err)
	}
	dst, n2, err := data.DecodeString(frame[n1:])
	if err != nil {
		return "", fmt.Errorf("%w: dst: %v", ErrBadHandshake, err)
	}
	n := n1 + n2
	epoch, m := binary.Uvarint(frame[n:])
	if m <= 0 {
		return "", fmt.Errorf("%w: epoch", ErrBadHandshake)
	}
	n += m
	wrapped, m, err := data.DecodeBytes(frame[n:])
	if err != nil {
		return "", fmt.Errorf("%w: wrapped key: %v", ErrBadHandshake, err)
	}
	n += m
	signed := frame[:n]
	sig, m, err := data.DecodeBytes(frame[n:])
	if err != nil {
		return "", fmt.Errorf("%w: sig: %v", ErrBadHandshake, err)
	}
	if n+m != len(frame) {
		return "", fmt.Errorf("%w: %d trailing bytes", ErrBadHandshake, len(frame)-n-m)
	}
	if dst != self {
		return "", fmt.Errorf("%w: addressed to %q, not %q", ErrBadHandshake, dst, self)
	}
	pub := s.dir.publicKey(src)
	if pub == nil {
		return "", fmt.Errorf("%w: %q", ErrUnknownPrincipal, src)
	}
	digest := sha256.Sum256(signed)
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest[:], sig); err != nil {
		return "", fmt.Errorf("%w: signature: %v", ErrBadHandshake, err)
	}
	key := s.dir.privateKey(self)
	if key == nil {
		return "", fmt.Errorf("%w: %q", ErrUnknownPrincipal, self)
	}
	sessionKey, err := rsa.DecryptPKCS1v15(nil, key, wrapped)
	if err != nil {
		return "", fmt.Errorf("%w: unwrapping key: %v", ErrBadHandshake, err)
	}
	if len(sessionKey) != sessionKeySize {
		return "", fmt.Errorf("%w: session key size %d", ErrBadHandshake, len(sessionKey))
	}
	mac := hmac.New(sha256.New, sessionKey)
	s.mu.Lock()
	k := link{src, dst}
	cur, ok := s.in[k]
	switch {
	case ok && epoch < cur.epoch:
		s.mu.Unlock()
		return "", fmt.Errorf("%w: stale epoch %d < %d (replay?)", ErrBadHandshake, epoch, cur.epoch)
	case ok && epoch == cur.epoch:
		s.in[k] = &inSession{epoch: epoch, mac: mac, prevEpoch: cur.prevEpoch, prevMAC: cur.prevMAC}
	case ok:
		s.in[k] = &inSession{epoch: epoch, mac: mac, prevEpoch: cur.epoch, prevMAC: cur.mac}
	default:
		s.in[k] = &inSession{epoch: epoch, mac: mac}
	}
	s.mu.Unlock()
	s.accepted.Add(1)
	return src, nil
}

// Seal MACs payload alone: SealBatch with one envelope.
func (s *SessionSealer) Seal(src, dst string, payload []byte) ([]byte, error) {
	one := [1]Envelope{{Dst: dst, Payload: payload}}
	_, _, err := s.SealBatch(src, one[:], nil)
	return one[0].Tag, err
}

// SealBatch MACs each envelope under its own link's session key. A tag
// carries the key epoch so the receiver selects the right key across
// rekey boundaries. The batch's tags are cut from buf, each
// capacity-limited.
func (s *SessionSealer) SealBatch(src string, batch []Envelope, buf []byte) ([]byte, int, error) {
	buf = slices.Grow(buf[:0], len(batch)*(binary.MaxVarintLen64+sha256.Size))
	for i, e := range batch {
		s.mu.Lock()
		sess, ok := s.out[link{src, e.Dst}]
		s.mu.Unlock()
		if !ok {
			return buf, 0, fmt.Errorf("%w: %s->%s", ErrNoSession, src, e.Dst)
		}
		lo := len(buf)
		buf = binary.AppendUvarint(buf, sess.epoch)
		sess.mac.Reset()
		sess.mac.Write(e.Payload)
		buf = sess.mac.Sum(buf)
		batch[i].Tag = buf[lo:len(buf):len(buf)]
		s.sealed.Add(1)
	}
	return buf, 0, nil
}

// Open checks a session-MAC tag against the link's inbound session,
// accepting the current epoch and the one preceding it.
func (s *SessionSealer) Open(src, dst string, payload, tag []byte) error {
	epoch, m := binary.Uvarint(tag)
	if m <= 0 {
		return fmt.Errorf("%w: epoch", ErrBadSignature)
	}
	s.mu.Lock()
	sess, ok := s.in[link{src, dst}]
	var mac hash.Hash
	if ok {
		switch epoch {
		case sess.epoch:
			mac = sess.mac
		case sess.prevEpoch:
			mac = sess.prevMAC
		}
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s->%s", ErrNoSession, src, dst)
	}
	if mac == nil {
		return fmt.Errorf("%w: %s->%s epoch %d", ErrNoSession, src, dst, epoch)
	}
	mac.Reset()
	mac.Write(payload)
	s.opened.Add(1)
	if !hmac.Equal(mac.Sum(sess.sum[:0]), tag[m:]) {
		return ErrBadSignature
	}
	return nil
}

// SessionStats reports the sealer's operation counts: handshake frames
// sealed and accepted (the RSA operations) and session-MAC seals/opens
// (the amortized symmetric operations).
func (s *SessionSealer) SessionStats() (handshakes, accepted, sealed, opened int64) {
	return s.handshakes.Load(), s.accepted.Load(), s.sealed.Load(), s.opened.Load()
}

// sessionSecret derives a per-principal secret for session-key derivation
// from the principal's private key material (nil if unknown). Determinism
// follows the directory's: deterministic directories yield reproducible
// session keys.
func (d *Directory) sessionSecret(name string) []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	k, ok := d.keys[name]
	if !ok {
		return nil
	}
	h := sha256.New()
	h.Write([]byte("provnet-session-secret:"))
	h.Write(k.D.Bytes())
	return h.Sum(nil)
}
