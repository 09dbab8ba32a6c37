package auth

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"testing"
)

// refLeaf and refRoot are the naive reference the tree builder is checked
// against, written from the specification and sharing no code with
// tree.go: the leaf spelled out byte by byte, the root as RFC 6962's
// recursive split at the largest power of two below n — which is the tree
// that pairing level by level and promoting the odd node builds.
func refLeaf(dst string, payload []byte) []byte {
	b := binary.AppendUvarint([]byte{0x00}, uint64(len(dst)))
	b = append(append(b, dst...), payload...)
	sum := sha256.Sum256(b)
	return sum[:]
}

func refRoot(leaves [][]byte) []byte {
	if len(leaves) == 1 {
		return leaves[0]
	}
	split := 1
	for split*2 < len(leaves) {
		split *= 2
	}
	b := append([]byte{0x01}, refRoot(leaves[:split])...)
	sum := sha256.Sum256(append(b, refRoot(leaves[split:])...))
	return sum[:]
}

// treeBatch is k distinct payloads from a to alternating destinations.
func treeBatch(k int) []Envelope {
	batch := make([]Envelope, k)
	for i := range batch {
		batch[i] = Envelope{Dst: []string{"b", "c"}[i%2], Payload: []byte(fmt.Sprintf("frame %d of %d", i, k))}
	}
	return batch
}

func sealTree(t testing.TB, s Sealer, k int) []Envelope {
	t.Helper()
	batch := treeBatch(k)
	_, signs, err := s.SealBatch("a", batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if signs != 1 {
		t.Fatalf("k=%d: %d signatures, want one for the tree", k, signs)
	}
	return batch
}

// TestTreeMatchesReference: for 1…17 leaves the signature is over the
// reference's root, every tag is as long as its path and opens, and no tag
// opens another payload of its tree or its own payload on another link.
func TestTreeMatchesReference(t *testing.T) {
	d := sealerDir(t)
	s := SignerSealer{S: NewRSASigner(d)}
	pub := d.publicKey("a")
	for k := 1; k <= 17; k++ {
		batch := sealTree(t, s, k)
		leaves := make([][]byte, k)
		for i, e := range batch {
			leaves[i] = refLeaf(e.Dst, e.Payload)
		}
		root := refRoot(leaves)
		for i, e := range batch {
			if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, root, e.Tag[:pub.Size()]); err != nil {
				t.Fatalf("k=%d leaf %d: the signature is not over the reference root: %v", k, i, err)
			}
			depth := (len(e.Tag) - pub.Size()) / hashSize
			if depth > bits.Len(uint(k-1)) || len(e.Tag) != pub.Size()+(depth+7)/8+depth*hashSize {
				t.Errorf("k=%d leaf %d: tag of %d bytes, path depth %d", k, i, len(e.Tag), depth)
			}
			if err := s.Open("a", e.Dst, e.Payload, e.Tag); err != nil {
				t.Errorf("k=%d leaf %d: %v", k, i, err)
			}
			for j, other := range batch {
				if j != i && s.Open("a", other.Dst, other.Payload, e.Tag) == nil {
					t.Errorf("k=%d: the tag of leaf %d opens leaf %d", k, i, j)
				}
			}
			if s.Open("a", "a", e.Payload, e.Tag) == nil {
				t.Errorf("k=%d leaf %d opens on a link it was not sealed for", k, i)
			}
		}
	}
}

// TestSealIsBatchOfOne: Seal is SealBatch with one envelope and Sign the
// same tree bound to no link; both tags are the bare signature.
func TestSealIsBatchOfOne(t *testing.T) {
	d := sealerDir(t)
	r := NewRSASigner(d)
	s := SignerSealer{S: r}
	payload := []byte("alone")
	tag, err := s.Seal("a", "b", payload)
	if err != nil {
		t.Fatal(err)
	}
	one := []Envelope{{Dst: "b", Payload: payload}}
	if _, _, err := s.SealBatch("a", one, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tag, one[0].Tag) || len(tag) != d.publicKey("a").Size() {
		t.Errorf("Seal = %x\nSealBatch of one = %x", tag, one[0].Tag)
	}
	signed, err := r.Sign("a", payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open("a", "", payload, signed); err != nil {
		t.Errorf("Sign is not the tree bound to no link: %v", err)
	}
	if r.Verify("a", payload, tag) == nil {
		t.Error("a tag bound to a link verified as bound to none")
	}
	if _, n, err := s.SealBatch("a", nil, nil); n != 0 || err != nil {
		t.Errorf("an empty batch signed %d times, %v", n, err)
	}
}

// mangledTags are the hostile shapes of one valid tag: each must be
// refused, the shape errors before anything is hashed.
func mangledTags(tag []byte, sigSize int) map[string][]byte {
	clone := func(extra ...byte) []byte { return append(append([]byte(nil), tag...), extra...) }
	depth := (len(tag) - sigSize) / hashSize
	dirBytes := (depth + 7) / 8
	m := map[string][]byte{
		"empty":            {},
		"shorter than sig": clone()[:sigSize-1],
		"one stray byte":   clone(0),
		"half a sibling":   clone(make([]byte, hashSize/2)...),
		"33 levels":        append(clone()[:sigSize], make([]byte, 5+33*hashSize)...),
	}
	// One more level: a direction field sized for it, the old siblings and
	// a zero one.
	ext := append(clone()[:sigSize], make([]byte, (depth+8)/8)...)
	copy(ext[sigSize:], tag[sigSize:sigSize+dirBytes])
	ext = append(append(ext, tag[sigSize+dirBytes:]...), make([]byte, hashSize)...)
	m["extended one level"] = ext
	if depth == 0 {
		return m
	}
	flipped := clone()
	flipped[len(flipped)-1] ^= 1
	m["sibling flipped"] = flipped
	dir := clone()
	dir[sigSize] ^= 1
	m["direction flipped"] = dir
	if depth%8 != 0 {
		high := clone()
		high[sigSize+dirBytes-1] |= 1 << (depth % 8)
		m["direction bit above depth"] = high
	}
	// One level less: the last sibling goes, and the direction field with
	// it when that was the only one.
	short := clone()[:len(tag)-hashSize]
	if depth == 1 {
		short = clone()[:sigSize]
	}
	m["truncated one level"] = short
	return m
}

// TestHostileTreeTags: every mangled shape of every tag of the 1-, 2-, 3-
// and 5-leaf trees is refused with ErrBadSignature, and the tag it was
// made from still opens.
func TestHostileTreeTags(t *testing.T) {
	d := sealerDir(t)
	s := SignerSealer{S: NewRSASigner(d)}
	sigSize := d.publicKey("a").Size()
	for _, k := range []int{1, 2, 3, 5} {
		for i, e := range sealTree(t, s, k) {
			for name, bad := range mangledTags(e.Tag, sigSize) {
				if err := s.Open("a", e.Dst, e.Payload, bad); !errors.Is(err, ErrBadSignature) {
					t.Errorf("k=%d leaf %d, %s: %v", k, i, name, err)
				}
			}
			if err := s.Open("a", e.Dst, e.Payload, e.Tag); err != nil {
				t.Errorf("k=%d leaf %d: %v", k, i, err)
			}
		}
	}
}

// TestInteriorNodeIsNoLeaf: a payload that is the two children of a real
// interior node, under that node's path, does not open — the leaf prefix
// keeps the levels apart.
func TestInteriorNodeIsNoLeaf(t *testing.T) {
	d := sealerDir(t)
	s := SignerSealer{S: NewRSASigner(d)}
	batch := sealTree(t, s, 4)
	sigSize := d.publicKey("a").Size()
	// Leaf 0's path is [leaf 1, node(2,3)]: the interior node (0,1) has
	// children leaf 0 ‖ leaf 1 and the one-sibling path [node(2,3)].
	tag0 := batch[0].Tag
	children := append(refLeaf(batch[0].Dst, batch[0].Payload), tag0[sigSize+1:sigSize+1+hashSize]...)
	path := append(append(append([]byte(nil), tag0[:sigSize]...), 0), tag0[sigSize+1+hashSize:]...)
	// The forgery is real: hashed as an interior node, children and path
	// lead to the signed root.
	node := sha256.Sum256(append([]byte{0x01}, children...))
	root := sha256.Sum256(append(append([]byte{0x01}, node[:]...), path[sigSize+1:]...))
	if err := rsa.VerifyPKCS1v15(d.publicKey("a"), crypto.SHA256, root[:], path[:sigSize]); err != nil {
		t.Fatalf("the interior node and its path do not reach the root: %v", err)
	}
	for _, dst := range []string{"", "b", "c"} {
		if err := s.Open("a", dst, children, path); !errors.Is(err, ErrBadSignature) {
			t.Errorf("an interior node opened as a leaf to %q: %v", dst, err)
		}
	}
}

// FuzzOpenTreeTag fuzzes the tag parser, which runs before anything is
// authenticated: whatever the payload and tag, Open returns a verdict and
// never panics, and what it accepts is a tag this test sealed over that
// very payload — one valid tag per leaf, so nothing mangled gets through.
func FuzzOpenTreeTag(f *testing.F) {
	d := sealerDir(f)
	s := SignerSealer{S: NewRSASigner(d)}
	sigSize := d.publicKey("a").Size()
	type sealed struct{ payload, tag string }
	issued := map[sealed]bool{}
	for _, k := range []int{1, 2, 3, 5} {
		for _, e := range sealTree(f, s, k) {
			if e.Dst != "b" {
				continue
			}
			issued[sealed{string(e.Payload), string(e.Tag)}] = true
			f.Add(e.Payload, e.Tag)
			for _, bad := range mangledTags(e.Tag, sigSize) {
				f.Add(e.Payload, bad)
			}
		}
	}
	f.Fuzz(func(t *testing.T, payload, tag []byte) {
		if s.Open("a", "b", payload, tag) == nil && !issued[sealed{string(payload), string(tag)}] {
			t.Fatalf("forged: payload %q opens under tag %x", payload, tag)
		}
	})
}
