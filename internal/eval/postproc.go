package eval

import (
	"bytes"
	"slices"

	"repro/internal/ast"
	"repro/internal/term"
)

// ApplyPost implements the post-processing directives of paper Sec. 5
// (Annotations → Post-processing Directives) for one output predicate:
//
//	certain        — drop facts with labelled nulls (certain answers);
//	orderBy n      — sort by column n (1-based);
//	limit n        — keep the first n facts;
//	keepMax n      — per group (all columns except n), keep only the row
//	                 with the maximal value in column n: the SQL-style
//	                 final aggregate over the monotonic intermediates;
//	keepMin n      — dually, the minimal row.
//
// The EGD null substitution is resolved first when non-nil. The result is
// in canonical order (sortCanonical); orderBy then stable-sorts it on its
// column, so facts with equal orderBy values keep canonical order — ties
// never fall back to storage order, which differs between schedulers — and
// limit cuts the same facts on every engine. The input slice is modified in
// place and returned.
func ApplyPost(facts []ast.Fact, posts []ast.PostDirective, pred string, subst *NullSubst) []ast.Fact {
	if subst != nil && !subst.Empty() {
		for i, f := range facts {
			args := make([]term.Value, len(f.Args))
			for j, v := range f.Args {
				args[j] = subst.Resolve(v)
			}
			facts[i] = ast.Fact{Pred: f.Pred, Args: args}
		}
		facts = dedupFacts(facts)
	}
	certain := false
	orderBy, limit := -1, -1
	keepMax, keepMin := -1, -1
	for _, d := range posts {
		if d.Pred != pred {
			continue
		}
		switch d.Kind {
		case "certain":
			certain = true
		case "orderBy":
			orderBy = d.Arg - 1
		case "limit":
			limit = d.Arg
		case "keepMax":
			keepMax = d.Arg - 1
		case "keepMin":
			keepMin = d.Arg - 1
		}
	}
	if certain {
		kept := facts[:0]
		for _, f := range facts {
			if f.IsGround() {
				kept = append(kept, f)
			}
		}
		facts = kept
	}
	if keepMax >= 0 {
		facts = keepExtremal(facts, keepMax, true)
	}
	if keepMin >= 0 {
		facts = keepExtremal(facts, keepMin, false)
	}
	sortCanonical(facts)
	if orderBy >= 0 {
		slices.SortStableFunc(facts, func(a, b ast.Fact) int {
			if orderBy < len(a.Args) && orderBy < len(b.Args) {
				return term.Compare(a.Args[orderBy], b.Args[orderBy])
			}
			return 0
		})
	}
	if limit >= 0 && len(facts) > limit {
		facts = facts[:limit]
	}
	return facts
}

// sortCanonical sorts facts into the canonical output order: by predicate,
// then column by column by the arguments' rendered form — ascending
// Fact.Key(), byte for byte. Each key is rendered once into one shared
// arena and a permutation is sorted with bytes.Compare, so a sort costs two
// allocations (more only if the arena outgrows its estimate) however many
// comparisons it makes.
func sortCanonical(facts []ast.Fact) {
	n := len(facts)
	if n < 2 {
		return
	}
	// ApplyPost sorts one predicate at a time; only a mixed slice pays for
	// the predicate in every key.
	mixed := false
	for i := 1; i < n && !mixed; i++ {
		mixed = facts[i].Pred != facts[0].Pred
	}
	type span struct {
		off, end int
		src      int32 // index of the fact the key was rendered from
	}
	spans := make([]span, n)
	arena := make([]byte, 0, 24*n)
	for i, f := range facts {
		off := len(arena)
		if mixed {
			arena = append(arena, f.Pred...)
		}
		arena = f.AppendArgsKey(arena)
		spans[i] = span{off, len(arena), int32(i)}
	}
	slices.SortFunc(spans, func(a, b span) int {
		return bytes.Compare(arena[a.off:a.end], arena[b.off:b.end])
	})
	// Apply the permutation in place, cycle by cycle; src < 0 marks a
	// position already holding its fact.
	for i := range spans {
		if spans[i].src < 0 {
			continue
		}
		first := facts[i]
		for j := i; ; {
			k := int(spans[j].src)
			spans[j].src = -1
			if k == i {
				facts[j] = first
				break
			}
			facts[j] = facts[k]
			j = k
		}
	}
}

// keepExtremal groups facts by every column except col and keeps the row
// with the maximal (or minimal) value at col.
func keepExtremal(facts []ast.Fact, col int, max bool) []ast.Fact {
	groupOf := make(map[string]int32, len(facts))
	group := make([]int32, len(facts)) // per fact; -1 = no value at col, kept as is
	var best []int                     // per group: index of its extremal fact
	var key []byte
	for i, f := range facts {
		if col >= len(f.Args) {
			group[i] = -1
			continue
		}
		key = append(key[:0], f.Pred...)
		for j, a := range f.Args {
			if j != col {
				key = a.AppendString(append(key, '\x00'))
			}
		}
		g, ok := groupOf[string(key)]
		if !ok {
			g = int32(len(best))
			groupOf[string(key)] = g
			best = append(best, i)
		} else if cmp := term.Compare(f.Args[col], facts[best[g]].Args[col]); (max && cmp > 0) || (!max && cmp < 0) {
			best[g] = i
		}
		group[i] = g
	}
	kept := facts[:0]
	for i, f := range facts {
		if g := group[i]; g < 0 || best[g] == i {
			kept = append(kept, f)
		}
	}
	return kept
}

func dedupFacts(facts []ast.Fact) []ast.Fact {
	seen := make(map[string]struct{}, len(facts))
	out := facts[:0]
	var key []byte
	for _, f := range facts {
		key = f.AppendArgsKey(append(key[:0], f.Pred...))
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			out = append(out, f)
		}
	}
	return out
}
