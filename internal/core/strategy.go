// Package core implements the paper's primary contribution: the
// termination strategy of Section 3 (Algorithm 1). It maintains the three
// guide structures — the warded forest (ground structure G), the linear
// forest (per-fact roots and provenance) and the lifted linear forest
// (summary structure S of stop-provenances) — and decides, for every fact
// the chase is about to generate, whether generating it can be skipped
// without compromising the universal answer.
//
// The structures decide on values, never on rendered keys. G and S are hash
// tables from a 64-bit isomorphism (pattern) hash to a chain of the facts
// (pattern roots) stored under it, and every hit is verified exactly by an
// allocation-free comparison (IsoEqual, patternEqual) under the identity
// the store interns by (term.Identical): collisions cost a comparison,
// never a decision. A fact's provenance is a node of one path tree shared
// by every fact derived along the same rule sequence, not a copy of it.
package core

import (
	"slices"
	"strconv"
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
	// Provenance is the sequence of rule IDs applied from LRoot: a node of
	// the strategy's path tree, shared by every fact derived along the same
	// sequence; nil at a linear-forest root.
	Provenance *Path
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
	// rewrites the row in place, retraction keeps positions.
	// The matcher pins a delta by reading that row instead of re-interning
	// Fact.Args. It sits in the padding after the two flags.
	row int32
	// id names the warded-forest tree this fact roots in G's hash; pattern
	// memoizes the fact's pattern hash (0 until a root is first looked up
	// in S).
	id      int64
	pattern uint64
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
// guide structures keep the original entry. The memoized pattern hash is
// invalidated (recomputed lazily).
func (m *FactMeta) ReplaceFact(f ast.Fact) {
	m.Fact = f
	m.pattern = 0
}

// patternHash returns the memoized pattern hash of the fact, never 0.
func (m *FactMeta) patternHash() uint64 {
	if m.pattern == 0 {
		m.pattern = patternHash(m.Fact) | 1
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
	for i, r := range m.Provenance.AppendRules(nil) {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(r))
	}
	sb.WriteByte(']')
	return sb.String()
}

// Path is a node of a strategy's provenance tree: the sequence of rule IDs
// applied from a linear-forest root, interned so that every fact derived
// along the same sequence points at one node. A linear derivation looks its
// node up among its parent's children instead of copying the path.
type Path struct {
	parent         *Path
	child, sibling *Path // first child; next child of the parent
	rule, depth    int32
}

// Len returns the number of rule applications on the path (0 for nil).
func (p *Path) Len() int {
	if p == nil {
		return 0
	}
	return int(p.depth)
}

// AppendRules appends the path's rule IDs, root first, to dst.
func (p *Path) AppendRules(dst []int) []int {
	n := len(dst)
	dst = slices.Grow(dst, p.Len())[:n+p.Len()]
	for i, q := len(dst)-1, p; i >= n; i, q = i-1, q.parent {
		dst[i] = int(q.rule)
	}
	return dst
}

// provTrie stores a set of stop-provenances (rule-ID sequences) supporting
// the two prefix queries of Algorithm 1; a path is walked into a reused
// buffer to query it.
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
// not yet stored anywhere. A policy retains nothing of a fact it rejects —
// neither its metadata nor its Args — so that the engine may reuse the
// rejected fact's Args and the policy the rejected metadata: after a
// rejection the next Derive may return the same *FactMeta.
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
	Checked     int // termination checks performed
	IsoChecks   int // facts that reached the isomorphism check
	IsoHits     int // isomorphism found (vertical pruning learnt)
	BeyondStop  int // cut by a learnt stop-provenance (no iso check)
	WithinStop  int // allowed without iso check (inside stop-provenance)
	NewTrees    int // new warded-forest trees opened
	GroundFacts int // facts stored in the ground structure G
	Patterns    int // distinct l_root patterns in the summary S
}

// Strategy is the termination strategy of Algorithm 1. It is not
// goroutine-safe; the engines serialize access (a strategy instance per
// reasoning session).
type Strategy struct {
	rules []*analysis.RuleInfo // indexed by rule ID

	// ground is the ground structure G: every null-carrying fact admitted
	// into a warded-forest tree, chained under the isoHash of (tree, fact).
	// A lookup is faithful to "each fact is checked only against the other
	// facts in the same tree": an entry of another tree never verifies.
	// Entry i is groundPages[i/groundPage][i%groundPage] (groundAt): G grows
	// a page at a time, so no entry is ever copied and the collector never
	// scans one large array of fact headers.
	ground      map[uint64]int32 // hash -> first entry of its chain
	groundPages [][]groundEntry
	nGround     int32

	// summary is the summary structure S: per lifted-linear-forest root
	// pattern, the trie of stop-provenances, chained under the pattern hash
	// and verified against the first root the pattern was learnt from.
	summary  map[uint64]int32 // hash -> first entry of its chain
	patterns []summaryEntry

	// paths holds the first-level nodes of the provenance tree, indexed by
	// rule ID; provBuf is the buffer a path is walked into for S.
	paths   []*Path
	provBuf []int

	// metas holds every FactMeta the strategy hands out, by value, in
	// chunks: a stored fact costs no allocation of its own. The slot of a
	// rejected fact is reused by the next derivation.
	metas Arena[FactMeta]
	last  []FactMeta // the most recent meta handed out, as its arena slice

	nextID int64
	stats  Stats

	// DisableSummary turns off horizontal pruning (the lifted linear
	// forest) for the ablation benchmarks; every fact then takes the
	// isomorphism-check path.
	DisableSummary bool
}

// groundPage is the number of entries of a page of G; every page is made
// full size.
const groundPage = 1024

// groundEntry is one fact of G: the admitted fact itself (a header copy
// sharing its Args), its tree, and the next entry of its hash chain (-1
// ends it).
type groundEntry struct {
	tree int64
	fact ast.Fact
	next int32
}

// summaryEntry is one pattern of S: the root it was learnt from (its own
// copy of the root's Args: a warded root may be the very fact rejected),
// its stop-provenances, and the next entry of its hash chain (-1 ends it).
type summaryEntry struct {
	root ast.Fact
	trie *provTrie
	next int32
}

// NewStrategy builds a termination strategy for an analyzed program.
func NewStrategy(res *analysis.Result) *Strategy {
	return &Strategy{
		rules:   res.Rules,
		ground:  make(map[uint64]int32),
		summary: make(map[uint64]int32),
		paths:   make([]*Path, len(res.Rules)),
	}
}

// Stats returns a snapshot of the decision counters.
func (s *Strategy) Stats() Stats {
	s.stats.GroundFacts = int(s.nGround)
	s.stats.Patterns = len(s.patterns)
	return s.stats
}

// NewEDBFact wraps a database fact as a root of both forests. Ground
// facts (the usual case) are not stored in the ground structure: only
// null-carrying facts participate in isomorphism.
func (s *Strategy) NewEDBFact(f ast.Fact) *FactMeta {
	m := s.newMeta()
	m.Fact, m.Kind, m.RuleID = f, analysis.KindNonLinear, -1
	m.id = s.nextID
	s.nextID++
	m.LRoot = m
	m.WRoot = m
	if !f.IsGround() {
		// The root opens its own tree: nothing there to be isomorphic to.
		h := isoHash(m.id, f)
		s.ground[h] = s.pushGround(m.id, f, chain(s.ground, h))
	}
	s.stats.NewTrees++
	return m
}

// Derive builds the fact structure for a fact freshly produced by rule
// (identified by ruleID) from the given parent facts. For linear rules
// parents has one element and the fact's provenance extends the parent's
// by ruleID — a lookup in the path tree, allocating only when the path is
// new; for warded rules the ward parent must be passed first. The returned
// metadata is not yet admitted: call CheckTermination to decide whether
// the chase step may proceed.
func (s *Strategy) Derive(f ast.Fact, ruleID int, parents []*FactMeta) *FactMeta {
	ri := s.rules[ruleID]
	m := s.newMeta()
	m.Fact, m.Kind, m.RuleID = f, ri.Kind, ruleID
	m.FreshNulls = freshNulls(f, parents)
	m.id = s.nextID
	s.nextID++
	switch ri.Kind {
	case analysis.KindLinear:
		p := parents[0]
		m.LRoot = p.LRoot
		m.WRoot = p.WRoot
		m.Provenance = s.extend(p.Provenance, ruleID)
	case analysis.KindWarded:
		// The warded forest keeps the edge from the ward; the linear
		// forest starts a new tree here (provenance reset).
		m.WRoot = parents[0].WRoot
		m.LRoot = m
	default:
		// Other non-linear rules open a new tree in both forests.
		m.WRoot = m
		m.LRoot = m
	}
	return m
}

// extend returns the path node of p followed by rule, creating it on the
// path's first use.
func (s *Strategy) extend(p *Path, rule int) *Path {
	if p == nil {
		if n := s.paths[rule]; n != nil {
			return n
		}
		n := &Path{rule: int32(rule), depth: 1}
		s.paths[rule] = n
		return n
	}
	for c := p.child; c != nil; c = c.sibling {
		if c.rule == int32(rule) {
			return c
		}
	}
	c := &Path{parent: p, sibling: p.child, rule: int32(rule), depth: p.depth + 1}
	p.child = c
	return c
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
		// root's pattern is not even hashed.
		if !s.DisableSummary && len(s.patterns) != 0 {
			if trie := s.findPattern(a.LRoot); trie != nil {
				s.provBuf = a.Provenance.AppendRules(s.provBuf[:0])
				beyond, within := trie.query(s.provBuf)
				if beyond {
					s.stats.BeyondStop++
					return s.reject(a) // beyond a stop provenance
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
		tree := a.WRoot.id
		h := isoHash(tree, a.Fact)
		head := chain(s.ground, h)
		for i := head; i >= 0; i = s.groundAt(i).next {
			if e := s.groundAt(i); e.tree == tree && IsoEqual(e.fact, a.Fact) {
				s.stats.IsoHits++
				if !s.DisableSummary {
					s.learnStop(a)
				}
				return s.reject(a) // isomorphism found
			}
		}
		s.ground[h] = s.pushGround(tree, a.Fact, head)
		return true // isomorphism not found
	}
	// Other non-linear generating rules: the produced fact is ground (the
	// rewriting confines existentials to linear rules), so tree redundancy
	// is set containment of ground facts — guaranteed fresh by the
	// engines' duplicate elimination.
	s.stats.NewTrees++
	return true
}

// newMeta returns a zeroed FactMeta from the arena.
func (s *Strategy) newMeta() *FactMeta {
	s.last = s.metas.Alloc(1)
	return &s.last[0]
}

// reject gives a rejected fact's metadata back to the arena when it is the
// one handed out last (the Policy contract: nothing of it is retained) and
// returns false.
func (s *Strategy) reject(a *FactMeta) bool {
	if s.last != nil && &s.last[0] == a {
		s.metas.Free(s.last)
		s.last = nil
	}
	return false
}

// chain returns the first entry of h's chain in G's or S's hash table, -1
// when h has none.
func chain(table map[uint64]int32, h uint64) int32 {
	if i, ok := table[h]; ok {
		return i
	}
	return -1
}

// groundAt returns G's entry i.
func (s *Strategy) groundAt(i int32) *groundEntry {
	return &s.groundPages[i/groundPage][i%groundPage]
}

// pushGround appends f of tree to G in front of the chain starting at next
// and returns the new entry's index, the chain's new head.
func (s *Strategy) pushGround(tree int64, f ast.Fact, next int32) int32 {
	i := s.nGround
	if i%groundPage == 0 {
		s.groundPages = append(s.groundPages, make([]groundEntry, 0, groundPage))
	}
	page := &s.groundPages[len(s.groundPages)-1]
	*page = append(*page, groundEntry{tree: tree, fact: f, next: next})
	s.nGround++
	return i
}

// findPattern returns the stop-provenances learnt for the pattern of root,
// nil when none were.
func (s *Strategy) findPattern(root *FactMeta) *provTrie {
	for i := chain(s.summary, root.patternHash()); i >= 0; i = s.patterns[i].next {
		if e := &s.patterns[i]; patternEqual(e.root, root.Fact) {
			return e.trie
		}
	}
	return nil
}

// learnStop records a's provenance as a stop-provenance for the pattern of
// a's linear-forest root.
func (s *Strategy) learnStop(a *FactMeta) {
	trie := s.findPattern(a.LRoot)
	if trie == nil {
		h := a.LRoot.patternHash()
		trie = &provTrie{}
		root := a.LRoot.Fact
		root.Args = slices.Clone(root.Args)
		s.patterns = append(s.patterns, summaryEntry{root: root, trie: trie, next: chain(s.summary, h)})
		s.summary[h] = int32(len(s.patterns) - 1)
	}
	s.provBuf = a.Provenance.AppendRules(s.provBuf[:0])
	trie.insert(s.provBuf)
}

// SummarySize returns the number of stop-provenances currently stored, a
// proxy for the memory footprint of the lifted linear forest.
func (s *Strategy) SummarySize() int {
	n := 0
	for _, e := range s.patterns {
		n += countTerminals(e.trie)
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
