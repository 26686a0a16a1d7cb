package core

import (
	"repro/internal/ast"
	"repro/internal/term"
)

// The guide structures compare facts by value under term.Identical, the
// identity the store interns by, and hash them consistently with it. A
// labelled null is named by the position of its first occurrence in the
// fact — numbering nulls by first occurrence, as the canonical forms of
// Sec. 3.1 do — and so, for patterns, is a constant. Arities are small, so
// finding a first occurrence is a short backward scan, never a map.

// Tags separating the kinds of position a hash folds in.
const (
	nullTag  = 0x6e756c6c << 32 // "null"
	constTag = 0x636f6e73 << 32 // "cons"
)

// mix folds x into the hash state h.
func mix(h, x uint64) uint64 {
	h ^= x
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>31
}

// firstSame returns the position of the first argument identical to
// args[i] (i itself when none precedes it).
func firstSame(args []term.Value, i int) int {
	for j := 0; j < i; j++ {
		if term.Identical(args[j], args[i]) {
			return j
		}
	}
	return i
}

// isoHash hashes f together with the warded-forest tree it belongs to:
// predicate, every constant by identity, every null by its first
// occurrence. Isomorphic facts of one tree hash alike.
func isoHash(tree int64, f ast.Fact) uint64 {
	h := mix(uint64(tree), term.String(f.Pred).Hash())
	for i, v := range f.Args {
		if v.IsNull() {
			h = mix(h, nullTag|uint64(firstSame(f.Args, i)))
		} else {
			h = mix(h, v.Hash())
		}
	}
	return h
}

// IsoEqual reports whether a and b are isomorphic (Sec. 3.1) under the
// store's value identity: the same predicate, identical constants in the
// same positions, and nulls related by a bijection — which holds iff every
// null position's first occurrence is the same in both. It allocates
// nothing.
func IsoEqual(a, b ast.Fact) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i, x := range a.Args {
		y := b.Args[i]
		if !x.IsNull() {
			if !term.Identical(x, y) {
				return false
			}
		} else if !y.IsNull() || firstSame(a.Args, i) != firstSame(b.Args, i) {
			return false
		}
	}
	return true
}

// IsoHash is the isomorphism hash of f on its own, for policies that keep
// one global store of facts up to isomorphism: IsoEqual facts hash alike.
func IsoHash(f ast.Fact) uint64 { return isoHash(0, f) }

// patternHash hashes the pattern of f (the paper's pattern-isomorphism):
// the predicate and, per position, whether it holds a null or a constant
// and where that term first occurs. P(1,2,x,y) and P(3,4,z,y) share a
// pattern; P(5,5,x,y) does not.
func patternHash(f ast.Fact) uint64 {
	h := term.String(f.Pred).Hash()
	for i, v := range f.Args {
		tag := uint64(constTag)
		if v.IsNull() {
			tag = nullTag
		}
		h = mix(h, tag|uint64(firstSame(f.Args, i)))
	}
	return h
}

// patternEqual reports whether a and b have the same pattern.
func patternEqual(a, b ast.Fact) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i, x := range a.Args {
		if x.IsNull() != b.Args[i].IsNull() || firstSame(a.Args, i) != firstSame(b.Args, i) {
			return false
		}
	}
	return true
}
