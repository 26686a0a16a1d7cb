// Package core implements the paper's primary contribution: the
// termination strategy of Section 3 (Algorithm 1). It maintains the three
// guide structures — the warded forest (ground structure G), the linear
// forest (per-fact roots and provenance) and the lifted linear forest
// (summary structure S of stop-provenances) — and decides, for every fact
// the chase is about to generate, whether generating it can be skipped
// without compromising the universal answer.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ast"
)

// FactMeta is the paper's "fact structure": a fact annotated with the kind
// of rule that generated it, its roots in the linear and warded forests,
// and its provenance (the rule IDs applied from l_root to reach it).
type FactMeta struct {
	Fact ast.Fact
	// Kind of the generating rule (linear / warded / non-linear). EDB facts
	// are non-linear roots.
	Kind analysis.RuleKind
	// LRoot is the root of this fact's tree in the linear forest.
	LRoot *FactMeta
	// WRoot is the root of this fact's tree in the warded forest.
	WRoot *FactMeta
	// Provenance is the ordered list of rule IDs applied from LRoot.
	Provenance []int
	// RuleID identifies the generating rule (-1 for EDB facts).
	RuleID int
	// FreshNulls reports whether every labelled null in Fact was minted by
	// this very derivation (i.e. none occurs in the parents). Policies use
	// it to recognize genuine existential chase steps.
	FreshNulls bool
	// Retracted marks a fact superseded by a monotonic-aggregation
	// improvement whose value already existed as another stored fact: the
	// row keeps its position in its relation (cursor and row-index
	// stability) but is no longer part of the database — lookups,
	// duplicate checks, outputs and the engines skip it.
	Retracted bool
	// row is 1 + the index of the relation row holding this fact; the zero
	// value means stored nowhere. Set once, on insertion: supersession
	// rewrites the row in place, retraction and restriding keep positions.
	// The matcher pins a delta by reading that row instead of re-interning
	// Fact.Args. It sits in the padding after the two flags.
	row int32
	// id distinguishes tree roots inside the strategy's maps; pattern
	// memoizes the fact's PatternKey (computed lazily for roots).
	id      int64
	pattern string
}

// SetRowIndex records the fact's row; only its relation calls it, on insertion.
func (m *FactMeta) SetRowIndex(i int) { m.row = int32(i) + 1 }

// RowIndex returns the index of the relation row holding the fact, -1 when
// the fact was never stored.
func (m *FactMeta) RowIndex() int { return int(m.row) - 1 }

// ReplaceFact substitutes the fact this metadata describes, keeping kind,
// forest roots, provenance and generating rule: a supersession update of a
// monotonic-aggregation intermediate by an improved value, not a fresh
// derivation — the termination strategy is not consulted again and the
// guide structures keep the original entry. The memoized pattern key is
// invalidated (recomputed lazily).
func (m *FactMeta) ReplaceFact(f ast.Fact) {
	m.Fact = f
	m.pattern = ""
}

// patternKey returns the memoized pattern of the fact.
func (m *FactMeta) patternKey() string {
	if m.pattern == "" {
		m.pattern = m.Fact.PatternKey()
	}
	return m.pattern
}

// String renders the fact with its provenance for diagnostics.
func (m *FactMeta) String() string {
	var sb strings.Builder
	sb.WriteString(m.Fact.String())
	sb.WriteString(" [")
	sb.WriteString(m.Kind.String())
	sb.WriteString(" prov=")
	for i, r := range m.Provenance {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", r)
	}
	sb.WriteByte(']')
	return sb.String()
}

// provTrie stores a set of stop-provenances (rule-ID sequences) supporting
// the two prefix queries of Algorithm 1.
type provTrie struct {
	children map[int]*provTrie
	terminal bool
}

func (t *provTrie) insert(prov []int) {
	n := t
	for _, r := range prov {
		if n.children == nil {
			n.children = make(map[int]*provTrie)
		}
		c := n.children[r]
		if c == nil {
			c = &provTrie{}
			n.children[r] = c
		}
		n = c
	}
	n.terminal = true
}

// query walks the trie along prov and classifies it:
// beyond   — some stop-provenance λ is a (possibly equal) prefix of prov;
// within   — prov is a strict prefix of some stop-provenance;
// neither  — exploration continues.
func (t *provTrie) query(prov []int) (beyond, within bool) {
	n := t
	for _, r := range prov {
		if n.terminal {
			return true, false
		}
		if n.children == nil {
			return false, false
		}
		c := n.children[r]
		if c == nil {
			return false, false
		}
		n = c
	}
	if n.terminal {
		return true, false // λ == prov counts as λ ⊆ prov
	}
	return false, len(n.children) > 0
}

// Policy is the interface between the engines and a termination strategy.
// The production implementation is Strategy (Algorithm 1); the baselines
// of Sec. 6.5/6.6 (trivial isomorphism check, restricted-chase
// homomorphism check, plain Skolem chase) implement the same interface in
// internal/baseline.
//
// Contract: the engines eliminate exact duplicates (set semantics) before
// consulting the policy, so CheckTermination only ever sees facts that are
// not yet stored anywhere.
type Policy interface {
	// NewEDBFact wraps a database fact as a root of the guide structures.
	NewEDBFact(f ast.Fact) *FactMeta
	// Derive builds metadata for a fact produced by ruleID from parents
	// (ward first for warded rules). The parents slice is a buffer the
	// engines reuse across emissions: implementations may retain its
	// elements but must not retain the slice itself.
	Derive(f ast.Fact, ruleID int, parents []*FactMeta) *FactMeta
	// CheckTermination decides whether the chase step adding the fact may
	// be activated.
	CheckTermination(m *FactMeta) bool
}

// SupersessionObserver is implemented by termination policies that
// memorize generated facts (e.g. the trivial global isomorphism check)
// and must be told when a monotonic-aggregation intermediate is
// superseded — replaced in place by an improved value or retracted — so
// their memory stays consistent with the database: a fact that is no
// longer stored must not block a later, independent derivation of the
// same value. The engines call NoteSuperseded with the superseded fact
// after every successful Replace.
type SupersessionObserver interface {
	NoteSuperseded(old ast.Fact)
}

var _ Policy = (*Strategy)(nil)

// Stats counts the strategy's decisions; exposed for the experimental
// evaluation (Sec. 6.6) and ablations.
type Stats struct {
	Checked        int // termination checks performed
	IsoChecks      int // facts that reached the isomorphism check
	IsoHits        int // isomorphism found (vertical pruning learnt)
	BeyondStop     int // cut by a learnt stop-provenance (no iso check)
	WithinStop     int // allowed without iso check (inside stop-provenance)
	NewTrees       int // new warded-forest trees opened
	RedundantTrees int // duplicate ground roots rejected
	GroundFacts    int // facts stored in the ground structure G
	Patterns       int // distinct l_root patterns in the summary S
}

// Strategy is the termination strategy of Algorithm 1. It is not
// goroutine-safe; the engines serialize access (a strategy instance per
// reasoning session).
type Strategy struct {
	rules []*analysis.RuleInfo // indexed by rule ID

	// ground is the ground structure G: warded-forest tree root id ->
	// iso-keys of the facts stored for that tree. Storing canonical iso
	// keys makes the per-tree isomorphism check a single map lookup while
	// remaining faithful to "each fact is checked only against the other
	// facts in the same tree".
	ground map[int64]map[string]bool

	// summary is the summary structure S: lifted-linear-forest root
	// pattern -> trie of stop-provenances.
	summary map[string]*provTrie

	nextID int64
	stats  Stats

	// DisableSummary turns off horizontal pruning (the lifted linear
	// forest) for the ablation benchmarks; every fact then takes the
	// isomorphism-check path.
	DisableSummary bool
}

// NewStrategy builds a termination strategy for an analyzed program.
func NewStrategy(res *analysis.Result) *Strategy {
	return &Strategy{
		rules:   res.Rules,
		ground:  make(map[int64]map[string]bool),
		summary: make(map[string]*provTrie),
	}
}

// Stats returns a snapshot of the decision counters.
func (s *Strategy) Stats() Stats {
	s.stats.Patterns = len(s.summary)
	return s.stats
}

// NewEDBFact wraps a database fact as a root of both forests. Ground
// facts (the usual case) are not stored in the ground structure: only
// null-carrying facts participate in isomorphism.
func (s *Strategy) NewEDBFact(f ast.Fact) *FactMeta {
	m := &FactMeta{Fact: f, Kind: analysis.KindNonLinear, RuleID: -1}
	m.id = s.nextID
	s.nextID++
	m.LRoot = m
	m.WRoot = m
	if !f.IsGround() {
		s.addToGround(m)
	}
	s.stats.NewTrees++
	return m
}

// Derive builds the fact structure for a fact freshly produced by rule
// (identified by ruleID) from the given parent facts. For linear rules
// parents has one element; for warded rules the ward parent must be
// passed first. The returned metadata is not yet admitted: call
// CheckTermination to decide whether the chase step may proceed.
func (s *Strategy) Derive(f ast.Fact, ruleID int, parents []*FactMeta) *FactMeta {
	ri := s.rules[ruleID]
	m := &FactMeta{Fact: f, Kind: ri.Kind, RuleID: ruleID}
	m.FreshNulls = freshNulls(f, parents)
	m.id = s.nextID
	s.nextID++
	switch ri.Kind {
	case analysis.KindLinear:
		p := parents[0]
		m.LRoot = p.LRoot
		m.WRoot = p.WRoot
		m.Provenance = append(append(make([]int, 0, len(p.Provenance)+1), p.Provenance...), ruleID)
	case analysis.KindWarded:
		// The warded forest keeps the edge from the ward; the linear
		// forest starts a new tree here (provenance reset).
		ward := parents[0]
		m.WRoot = ward.WRoot
		m.LRoot = m
		m.Provenance = nil
	default:
		// Other non-linear rules open a new tree in both forests.
		m.WRoot = m
		m.LRoot = m
		m.Provenance = nil
	}
	return m
}

// CheckTermination is Algorithm 1: it reports whether the chase step that
// would add a may be activated. On admission the guide structures are
// updated (a is recorded in G; learnt stop-provenances are recorded in S).
//
// Facts without labelled nulls take a fast path: isomorphism on a ground
// fact is plain equality, which the engines' exact-duplicate elimination
// already rules out, so ground facts need neither the per-tree check nor
// storage in the ground structure (only null-carrying facts can ever be
// isomorphic to them). The stop-provenance queries still apply: a learnt
// stop-provenance cuts the whole repeated subtree, ground members
// included (Theorem 1: the cut subtree's ground facts equal the kept
// twin's).
func (s *Strategy) CheckTermination(a *FactMeta) bool {
	s.stats.Checked++
	if a.Kind == analysis.KindLinear || a.Kind == analysis.KindWarded {
		// No stop-provenance learnt yet (never, on a ground program): the
		// root's pattern key is not even rendered.
		if !s.DisableSummary && len(s.summary) != 0 {
			if trie := s.summary[a.LRoot.patternKey()]; trie != nil {
				beyond, within := trie.query(a.Provenance)
				if beyond {
					s.stats.BeyondStop++
					return false // beyond a stop provenance
				}
				if within {
					s.stats.WithinStop++
					return true // within a stop provenance
				}
			}
		}
		if a.Fact.IsGround() {
			return true // equality-isomorphism already excluded by dedup
		}
		// Continue exploration: local isomorphism check in the warded tree.
		s.stats.IsoChecks++
		tree := s.ground[a.WRoot.id]
		iso := a.Fact.IsoKey()
		if tree != nil && tree[iso] {
			s.stats.IsoHits++
			if !s.DisableSummary {
				s.learnStop(a)
			}
			return false // isomorphism found
		}
		s.addToGround(a)
		return true // isomorphism not found
	}
	// Other non-linear generating rules: the produced fact is ground (the
	// rewriting confines existentials to linear rules), so tree redundancy
	// is set containment of ground facts — guaranteed fresh by the
	// engines' duplicate elimination.
	s.stats.NewTrees++
	return true
}

// learnStop records a.provenance as a stop-provenance for the pattern of
// a's linear-forest root.
func (s *Strategy) learnStop(a *FactMeta) {
	pk := a.LRoot.patternKey()
	trie := s.summary[pk]
	if trie == nil {
		trie = &provTrie{}
		s.summary[pk] = trie
	}
	trie.insert(a.Provenance)
}

func (s *Strategy) addToGround(a *FactMeta) {
	tree := s.ground[a.WRoot.id]
	if tree == nil {
		tree = make(map[string]bool)
		s.ground[a.WRoot.id] = tree
	}
	tree[a.Fact.IsoKey()] = true
	s.stats.GroundFacts++
}

// EvictTree drops the stored ground values of a fully-explored warded tree
// (except its root), the memory optimization noted at the end of Sec. 3.4.
func (s *Strategy) EvictTree(root *FactMeta) {
	if tree := s.ground[root.id]; tree != nil {
		s.stats.GroundFacts -= len(tree)
		rootKey := root.Fact.IsoKey()
		s.ground[root.id] = map[string]bool{rootKey: true}
		s.stats.GroundFacts++
	}
}

// SummarySize returns the number of stop-provenances currently stored, a
// proxy for the memory footprint of the lifted linear forest.
func (s *Strategy) SummarySize() int {
	n := 0
	for _, t := range s.summary {
		n += countTerminals(t)
	}
	return n
}

func countTerminals(t *provTrie) int {
	n := 0
	if t.terminal {
		n++
	}
	for _, c := range t.children {
		n += countTerminals(c)
	}
	return n
}

// Patterns returns the sorted distinct l_root patterns in the summary,
// useful in tests asserting horizontal-pruning behaviour.
func (s *Strategy) Patterns() []string {
	out := make([]string, 0, len(s.summary))
	for k := range s.summary {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// freshNulls reports whether every labelled null of f is absent from the
// parent facts (i.e. was minted by this derivation).
func freshNulls(f ast.Fact, parents []*FactMeta) bool {
	for _, v := range f.Args {
		if !v.IsNull() {
			continue
		}
		for _, p := range parents {
			if p == nil {
				continue
			}
			for _, pv := range p.Fact.Args {
				if pv == v {
					return false
				}
			}
		}
	}
	return true
}
