package core

import "slices"

// Arena hands out runs of T from chunks it owns, so that a run storing
// many small objects — fact metadata, fact arguments — pays one allocation
// per chunk instead of one per object. Nothing handed out is ever freed on
// its own: an arena lives as long as the run whose facts it holds, and a
// chunk is garbage once nothing points into it.
//
// The chunk length is derived from what the arena has handed out so far:
// 1/arenaShare of it, at least arenaFloor and at most arenaCap items. The
// unused tail of the last chunk — the arena's only slack — therefore stays
// within a few percent of what the run stores however small the run is,
// while a large run allocates few chunks: about a thousand for a million
// items. The zero value is ready to use. Not safe for concurrent use.
type Arena[T any] struct {
	chunk []T // the current chunk; len counts the items handed out from it
	n     int // items handed out over the arena's life and not freed
}

// Chunk lengths of an Arena, in items, and the share of the items handed
// out so far that sizes the next chunk.
const (
	arenaFloor = 16
	arenaCap   = 1024
	arenaShare = 64
)

// Alloc returns n zeroed, contiguous items. The slice's capacity is n, so
// appending to it never writes into the arena.
func (a *Arena[T]) Alloc(n int) []T {
	if n == 0 {
		return []T{}
	}
	if cap(a.chunk)-len(a.chunk) < n {
		// Grow rounds the capacity up to what the allocator hands out for
		// the size (a size class, or whole pages), so none of it is lost.
		a.chunk = slices.Grow([]T(nil), max(n, min(max(a.n/arenaShare, arenaFloor), arenaCap)))
	}
	l := len(a.chunk)
	a.chunk = a.chunk[:l+n]
	a.n += n
	return a.chunk[l : l+n : l+n]
}

// Free gives s back when it is the arena's most recent allocation still
// held, zeroing it, so that the next Alloc reuses the space; any other s —
// an older allocation, or memory the arena does not own — is left alone.
func (a *Arena[T]) Free(s []T) {
	l := len(a.chunk) - len(s)
	if len(s) == 0 || l < 0 || &a.chunk[l] != &s[0] {
		return
	}
	clear(s)
	a.chunk = a.chunk[:l]
	a.n -= len(s)
}
