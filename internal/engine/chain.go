package engine

// The engine's hash-keyed state — table rows, the dependency index,
// aggregate-selection groups and their shadows, aggregate groups — maps a
// 64-bit structural hash to the first struct with it, and structs whose
// hashes collide chain through a next field of their own: a bucket costs
// no slice, and the equality check walks the chain. The structs come from
// slabs, one malloc per chunk instead of one each.

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

// slab hands out zeroed Ts from chunks that double from slabMin to slabMax
// elements. A chunk lives while anything in it is referenced, so a slab
// suits structs that live about as long as the state that holds them.
type slab[T any] struct {
	free []T
	size int
}

const (
	slabMin = 16
	slabMax = 256
)

// take returns n contiguous zeroed Ts, capacity n.
func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		s.size = min(max(2*s.size, slabMin), slabMax)
		s.free = make([]T, max(n, s.size))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// alloc returns one zeroed T.
func (s *slab[T]) alloc() *T { return &s.take(1)[0] }
