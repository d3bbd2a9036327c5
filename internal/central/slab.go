package central

// minSlabChunk is the first chunk a slab allocates, in elements.
const minSlabChunk = 16

// slab hands out elements carved from chunks it never reallocates, so
// what it handed out stays put — pointers into it and slices of it are
// valid for the slab's whole life — and many small allocations become a
// few large ones. Each new chunk is an eighth of everything handed out
// before it (growth by 12.5%, so chunk count grows logarithmically), and
// a chunk's unused tail never exceeds an eighth of the memory in use:
// window state is the bulk of central's live heap, so slack there shows
// directly. A winState owns one slab per element type; they live and die
// with the window.
type slab[T any] struct {
	chunk []T // current chunk; len is the part already handed out
	total int // elements handed out over the slab's life
}

// take returns n zeroed elements. The result is capped at n, so an
// append to it reallocates instead of overwriting the next element.
func (s *slab[T]) take(n int) []T {
	if cap(s.chunk)-len(s.chunk) < n {
		s.refill(n)
	}
	i := len(s.chunk)
	s.chunk = s.chunk[:i+n]
	s.total += n
	return s.chunk[i : i+n : i+n]
}

// clone copies src into the slab; nil for an empty src.
func (s *slab[T]) clone(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	dst := s.take(len(src))
	copy(dst, src)
	return dst
}

// refill starts a chunk with room for at least n elements.
//
//scrub:allowalloc(arena chunk refill: geometric, amortized over the chunk's elements)
func (s *slab[T]) refill(n int) {
	s.chunk = make([]T, 0, max(n, minSlabChunk, s.total/8))
}
