package engine

import "provnet/internal/data"

// The engine's hash-keyed state — table rows, aggregate-selection groups
// and their shadows, aggregate groups and their contributions, the
// retraction sets — maps a 64-bit
// hash to the first struct with it, and structs whose hashes collide
// chain through a next field of their own: a bucket costs no slice, and
// the equality check walks the chain. The structs come from slabs, one
// malloc per chunk instead of one each.

// chain is a map of intrusive hash chains of T, whose next field link
// returns.
type chain[T any] struct {
	m    map[uint64]*T
	link func(*T) **T
}

func newChain[T any](link func(*T) **T) chain[T] {
	return chain[T]{m: make(map[uint64]*T), link: link}
}

// first returns the head of h's chain (nil when there is none).
func (c chain[T]) first(h uint64) *T { return c.m[h] }

// push appends x at the end of h's chain, so a chain keeps insertion
// order.
func (c chain[T]) push(h uint64, x *T) {
	last := c.m[h]
	if last == nil {
		c.m[h] = x
		return
	}
	for *c.link(last) != nil {
		last = *c.link(last)
	}
	*c.link(last) = x
}

// unlink removes x from h's chain. Unlinking x again is a no-op: a
// dropped aggregate-selection group can still sit in a relaxed-group
// list that drops it a second time.
func (c chain[T]) unlink(h uint64, x *T) {
	if head := c.m[h]; head == x {
		if next := *c.link(x); next == nil {
			delete(c.m, h)
		} else {
			c.m[h] = next
		}
	} else {
		for p := head; p != nil; p = *c.link(p) {
			if *c.link(p) == x {
				*c.link(p) = *c.link(x)
				break
			}
		}
	}
	*c.link(x) = nil
}

// hashPrime is the FNV-1a 64-bit prime, with which the engine folds
// hashes it already has into a key for a pair or a sequence of them.
const hashPrime = 1099511628211

// slab hands out zeroed Ts from chunks that double from slabMin to slabMax
// elements. A chunk lives while anything in it is referenced, so a slab
// suits structs that live about as long as the state that holds them.
// Structs put back are handed out again first; reset hands the current
// chunk out again from its start, for slices that all die together.
type slab[T any] struct {
	chunk []T // the current chunk
	used  int // elements of chunk handed out
	size  int
	spare []*T
	// taken counts the elements take handed out.
	taken int
}

const (
	slabMin = 16
	slabMax = 256
)

// storageChunk is the first chunk of the storage a table or an aggregate
// state keeps its values in. Such storage outgrows a few rows, and a
// ramp from slabMin would cost a malloc per doubling in every one.
const storageChunk = 192

// newStorage returns an empty value slab whose first chunk holds
// storageChunk values.
func newStorage() slab[data.Value] { return slab[data.Value]{size: storageChunk / 2} }

// take returns n contiguous zeroed Ts, capacity n (nil when n is 0).
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if s.used+n > len(s.chunk) {
		s.size = min(max(2*s.size, slabMin), slabMax)
		s.chunk, s.used = make([]T, max(n, s.size)), 0
	}
	out := s.chunk[s.used : s.used+n : s.used+n]
	s.used += n
	s.taken += n
	return out
}

// alloc returns one zeroed T.
func (s *slab[T]) alloc() *T {
	if n := len(s.spare); n > 0 {
		x := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return x
	}
	return &s.take(1)[0]
}

// put takes back x, which nothing references any more, for a later
// alloc.
func (s *slab[T]) put(x *T) {
	var zero T
	*x = zero
	s.spare = append(s.spare, x)
}

// reset hands the current chunk out again from its start, cleared. The
// caller no longer uses anything it took; earlier chunks are left to
// the collector.
func (s *slab[T]) reset() {
	clear(s.chunk[:s.used])
	s.used = 0
}
