package assign

import (
	"oassis/internal/vocab"
)

// Bump arenas for successor generation. A Space generates thousands of
// lattice nodes per run and each node needs a [][]Term header plus one
// fresh value row; allocating them individually made Successors the
// engine's allocation hotspot. The arenas hand out sub-slices of
// block-allocated backing arrays instead: allocation is a bounds check and
// a slice expression, and the blocks are released together when the last
// assignment referencing them becomes unreachable (assignments keep their
// blocks alive through the sub-slices, so the arena owner — the per-session
// Space — may be dropped earlier).
//
// Lifetime rules: arena-allocated slices are immutable after being handed
// out (assignments are canonical and never mutated in place), blocks are
// never reused or shrunk, and the arenas are single-owner — only the
// engine that owns the Space, driven by one goroutine at a time, may
// allocate. Successor candidates are assembled in reusable scratch
// buffers and copied in only on the node's first sight, when it enters the
// Space's node table; candidates outside 𝒜's structural bounds and
// re-derivations of known nodes never touch the arenas.

// arenaBlock is the number of terms (or rows) allocated per backing block;
// large enough to amortize the block allocations, small enough not to
// strand memory on tiny lattices.
const arenaBlock = 1024

// termArena bump-allocates immutable []vocab.Term rows.
type termArena struct {
	cur []vocab.Term
}

// clone copies vs into the arena and returns the stable full-capacity
// sub-slice.
func (a *termArena) clone(vs []vocab.Term) []vocab.Term {
	n := len(vs)
	if n == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < n {
		size := arenaBlock
		if n > size {
			size = n
		}
		a.cur = make([]vocab.Term, 0, size)
	}
	start := len(a.cur)
	a.cur = a.cur[:start+n]
	out := a.cur[start : start+n : start+n]
	copy(out, vs)
	return out
}

// hdrArena bump-allocates immutable [][]vocab.Term assignment headers.
type hdrArena struct {
	cur [][]vocab.Term
}

// alloc returns an uninitialized n-row header from the arena.
func (a *hdrArena) alloc(n int) [][]vocab.Term {
	if n == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < n {
		size := arenaBlock
		if n > size {
			size = n
		}
		a.cur = make([][]vocab.Term, 0, size)
	}
	start := len(a.cur)
	a.cur = a.cur[:start+n]
	return a.cur[start : start+n : start+n]
}
