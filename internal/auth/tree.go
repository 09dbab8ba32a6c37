// The hash tree behind the RSA says scheme: one signature covers every
// payload a principal says in one call.
//
// A call hashes each payload into a leaf bound to the link it travels,
// pairs the leaves level by level up to one root (the odd node of a level
// is promoted unchanged), and signs the root once. Each payload's tag is
// the signature followed by the sibling hashes that lead from its leaf to
// the root, so a receiver holding one payload and its tag recomputes the
// root and checks the signature without seeing the rest of the tree:
//
//	leaf      SHA-256(0x00 ‖ string(dst) ‖ payload)
//	interior  SHA-256(0x01 ‖ left ‖ right)
//	tag       signature ‖ direction bits ‖ depth × 32 B siblings, leaf side first
//
// The two prefixes keep an interior node from being presented as a leaf
// (RFC 6962 §2.1). depth counts the siblings on this leaf's path, at most
// ⌈log₂ k⌉ for k payloads. The direction field is ⌈depth/8⌉ bytes, least
// significant bit first: bit p set means sibling p is the left child. A
// payload sealed alone is the one-leaf tree — depth 0, the tag is the bare
// signature.
package auth

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"sync"

	"provnet/internal/data"
)

const (
	leafPrefix = 0x00
	nodePrefix = 0x01
	hashSize   = sha256.Size
	// maxTreeDepth bounds the sibling path a tag may carry: 2³² payloads
	// in one call, and the direction bits fit a uint32.
	maxTreeDepth = 32
)

// leafBufs pools the scratch a leaf is assembled in, so hashing one is a
// copy and a one-shot SHA-256 with no allocation.
var leafBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// leafHash binds payload to the link destination it is said to.
func leafHash(dst string, payload []byte) [hashSize]byte {
	bp := leafBufs.Get().(*[]byte)
	b := append(data.AppendString(append(*bp, leafPrefix), dst), payload...)
	sum := sha256.Sum256(b)
	if cap(b) <= 1<<20 { // a one-off oversized payload is not worth hoarding
		*bp = b[:0]
		leafBufs.Put(bp)
	}
	return sum
}

func nodeHash(left, right *[hashSize]byte) [hashSize]byte {
	var b [1 + 2*hashSize]byte
	b[0] = nodePrefix
	copy(b[1:], left[:])
	copy(b[1+hashSize:], right[:])
	return sha256.Sum256(b[:])
}

// signTree is RSASigner's one sign routine: it authenticates every
// envelope of batch as said by principal to its destination with a single
// RSA signature over the root of their hash tree, and sets their tags.
// The tags are a pure function of the key, the envelopes and their order.
func (s *RSASigner) signTree(principal string, batch []Envelope) error {
	key := s.dir.privateKey(principal)
	if key == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPrincipal, principal)
	}
	k := len(batch)
	if k == 0 {
		return nil
	}
	// Every level back to back: the k leaves, then each level above them.
	// A round's handful of frames fits the stack.
	var few [32][hashSize]byte
	nodes := few[:0]
	for _, e := range batch {
		nodes = append(nodes, leafHash(e.Dst, e.Payload))
	}
	var widths [maxTreeDepth + 1]int
	levels := 0
	for lo, n := 0, k; n > 1; lo, n = lo+n, (n+1)/2 {
		widths[levels] = n
		levels++
		for i := 0; i+1 < n; i += 2 {
			nodes = append(nodes, nodeHash(&nodes[lo+i], &nodes[lo+i+1]))
		}
		if n%2 == 1 {
			nodes = append(nodes, nodes[lo+n-1])
		}
	}
	root := nodes[len(nodes)-1]
	sig, err := rsa.SignPKCS1v15(nil, key, crypto.SHA256, root[:])
	if err != nil {
		return err
	}
	for i := range batch {
		var sibs [maxTreeDepth]*[hashSize]byte
		var dirs uint32
		depth := 0
		for l, lo, at := 0, 0, i; l < levels; l, lo, at = l+1, lo+widths[l], at/2 {
			if at^1 >= widths[l] {
				continue // promoted: no sibling on this level
			}
			sibs[depth] = &nodes[lo+(at^1)]
			dirs |= uint32(at&1) << depth
			depth++
		}
		tag := make([]byte, 0, len(sig)+(depth+7)/8+depth*hashSize)
		tag = append(tag, sig...)
		for b := 0; b < (depth+7)/8; b++ {
			tag = append(tag, byte(dirs>>(8*b)))
		}
		for _, sib := range sibs[:depth] {
			tag = append(tag, sib[:]...)
		}
		batch[i].Tag = tag
	}
	return nil
}

// verifyLeaf is RSASigner's one verify routine: it recomputes the root
// from payload, the link destination and the tag's sibling path, and
// checks principal's signature over it. The tag is parsed before anything
// is authenticated, so its shape is checked before any hashing: exactly
// one (depth, direction field) fits a given length, and direction bits
// above the depth must be clear, which leaves one valid tag per leaf.
func (s *RSASigner) verifyLeaf(principal, dst string, payload, tag []byte) error {
	pub := s.dir.publicKey(principal)
	if pub == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPrincipal, principal)
	}
	if len(tag) < pub.Size() {
		return fmt.Errorf("%w: tag of %d bytes is shorter than the signature", ErrBadSignature, len(tag))
	}
	sig, path := tag[:pub.Size()], tag[pub.Size():]
	depth := len(path) / hashSize
	dirBytes := (depth + 7) / 8
	if depth > maxTreeDepth || len(path) != dirBytes+depth*hashSize {
		return fmt.Errorf("%w: %d path bytes are no direction field and whole siblings", ErrBadSignature, len(path))
	}
	var dirs uint32
	for b, v := range path[:dirBytes] {
		dirs |= uint32(v) << (8 * b)
	}
	if uint64(dirs)>>depth != 0 {
		return fmt.Errorf("%w: direction bits set above depth %d", ErrBadSignature, depth)
	}
	h := leafHash(dst, payload)
	for p, sibs := 0, path[dirBytes:]; p < depth; p++ {
		sib := (*[hashSize]byte)(sibs[p*hashSize:])
		if dirs>>p&1 == 1 {
			h = nodeHash(sib, &h)
		} else {
			h = nodeHash(&h, sib)
		}
	}
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, h[:], sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	return nil
}
