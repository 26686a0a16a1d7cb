// Package baseline implements the comparator regimes of the paper's
// evaluation: the trivial termination technique of Sec. 6.6 (exhaustive
// isomorphism check over all generated facts), the restricted-chase
// homomorphism check used by Graal/PDQ/LLunatic-like systems, the
// unrestricted Skolem chase used by DLV/RDFox-like systems, and a bulk
// semi-naive Datalog evaluator standing in for recursive-SQL engines.
// The first three are core.Policy implementations pluggable into both the
// chase and the pipeline engine, so comparisons isolate exactly the
// algorithmic regime the paper attributes the differences to.
package baseline

import (
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/storage"
)

// TrivialIso is the "trivial technique" of Sec. 6.6: memorize every
// generated fact up to isomorphism (hash-indexed for constant-time
// retrieval) and cut the chase whenever an isomorphic fact was already
// generated anywhere. Unlike the full strategy it keeps a single global
// store, so memory grows with the whole chase and no pattern learning
// (lifted linear forest) amortizes the checks. Isomorphism is the full
// strategy's: core.IsoEqual under the store's value identity, so Int(1)
// and Float(1.0) are never one class.
type TrivialIso struct {
	res *analysis.Result
	// seen holds every remembered fact under its core.IsoHash; n counts them.
	seen map[uint64][]ast.Fact
	n    int
	// Checks counts isomorphism probes (every candidate fact pays one).
	Checks int
}

// NewTrivialIso builds the policy for an analyzed program.
func NewTrivialIso(res *analysis.Result) *TrivialIso {
	return &TrivialIso{res: res, seen: make(map[uint64][]ast.Fact)}
}

// remember stores f unless an isomorphic fact is stored; it reports
// whether f was new.
func (p *TrivialIso) remember(f ast.Fact) bool {
	h := core.IsoHash(f)
	for _, g := range p.seen[h] {
		if core.IsoEqual(f, g) {
			return false
		}
	}
	p.seen[h] = append(p.seen[h], f)
	p.n++
	return true
}

// NewEDBFact registers a database fact.
func (p *TrivialIso) NewEDBFact(f ast.Fact) *core.FactMeta {
	p.remember(f)
	return &core.FactMeta{Fact: f, Kind: analysis.KindNonLinear}
}

// Derive wraps a derived fact with minimal metadata.
func (p *TrivialIso) Derive(f ast.Fact, ruleID int, parents []*core.FactMeta) *core.FactMeta {
	return &core.FactMeta{Fact: f, Kind: p.res.Rules[ruleID].Kind, RuleID: ruleID}
}

// CheckTermination admits the fact iff no isomorphic fact was generated
// before, storing it otherwise.
func (p *TrivialIso) CheckTermination(m *core.FactMeta) bool {
	p.Checks++
	return p.remember(m.Fact)
}

// NoteSuperseded forgets a superseded aggregate intermediate: the fact is
// no longer stored, so its isomorphism class must not cut a later,
// independent derivation of the same value (core.SupersessionObserver).
func (p *TrivialIso) NoteSuperseded(old ast.Fact) {
	h := core.IsoHash(old)
	bucket := p.seen[h]
	for i, g := range bucket {
		if core.IsoEqual(old, g) {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			if last == 0 {
				delete(p.seen, h)
			} else {
				p.seen[h] = bucket[:last]
			}
			p.n--
			return
		}
	}
}

// StoredFacts returns how many facts the global store holds.
func (p *TrivialIso) StoredFacts() int { return p.n }

// RestrictedHom emulates the restricted chase of back-end based systems:
// before admitting a fact produced by an existential rule firing (fresh
// labelled nulls), it searches the already-stored null-carrying facts of
// the same predicate for one that subsumes it homomorphically (constants
// fixed, fresh nulls mapped consistently). The scan runs per predicate on
// every existential chase step — modelling the per-step SQL checks those
// systems execute without incremental maintenance (Sec. 7, Example 14).
// Facts that merely propagate pre-existing nulls are admitted untouched:
// their nulls are shared with other facts, so mapping them would not be a
// homomorphism of the instance.
type RestrictedHom struct {
	res   *analysis.Result
	store map[string]*storage.Relation // pred -> facts with nulls
	// Checks counts homomorphism searches; Scanned counts candidate facts
	// visited during them.
	Checks  int
	Scanned int
}

// NewRestrictedHom builds the policy for an analyzed program.
func NewRestrictedHom(res *analysis.Result) *RestrictedHom {
	return &RestrictedHom{res: res, store: make(map[string]*storage.Relation)}
}

// NewEDBFact registers a database fact.
func (p *RestrictedHom) NewEDBFact(f ast.Fact) *core.FactMeta {
	return &core.FactMeta{Fact: f, Kind: analysis.KindNonLinear}
}

// Derive wraps a derived fact with minimal metadata.
func (p *RestrictedHom) Derive(f ast.Fact, ruleID int, parents []*core.FactMeta) *core.FactMeta {
	m := &core.FactMeta{Fact: f, Kind: p.res.Rules[ruleID].Kind, RuleID: ruleID}
	m.FreshNulls = factNullsFresh(f, parents)
	return m
}

// CheckTermination rejects facts subsumed by a stored fact via a null
// homomorphism; ground facts and null-propagating facts pass (the
// engine's exact-duplicate check handles equality). The per-predicate
// scan is intentional: backend systems re-run the check as a query over
// the whole relation on every chase step.
func (p *RestrictedHom) CheckTermination(m *core.FactMeta) bool {
	f := m.Fact
	if f.IsGround() || !m.FreshNulls {
		p.storeFact(f)
		return true
	}
	if m.RuleID >= 0 && len(p.res.Rules[m.RuleID].Rule.Existentials()) == 0 {
		p.storeFact(f)
		return true
	}
	p.Checks++
	rel := p.store[f.Pred]
	if rel == nil {
		rel = storage.NewRelation(f.Pred, len(f.Args))
		p.store[f.Pred] = rel
	}
	for _, row := range rel.Lookup(0, f.Args) {
		p.Scanned++
		if homSubsumes(f, rel.At(int(row)).Fact) {
			return false
		}
	}
	rel.Insert(&core.FactMeta{Fact: f})
	return true
}

// storeFact records an admitted null-carrying fact so later subsumption
// scans see it.
func (p *RestrictedHom) storeFact(f ast.Fact) {
	if f.IsGround() {
		return
	}
	rel := p.store[f.Pred]
	if rel == nil {
		rel = storage.NewRelation(f.Pred, len(f.Args))
		p.store[f.Pred] = rel
	}
	rel.Insert(&core.FactMeta{Fact: f})
}

// factNullsFresh reports whether none of f's nulls occur in the parents.
func factNullsFresh(f ast.Fact, parents []*core.FactMeta) bool {
	for _, v := range f.Args {
		if !v.IsNull() {
			continue
		}
		for _, par := range parents {
			if par == nil {
				continue
			}
			for _, pv := range par.Fact.Args {
				if pv == v {
					return false
				}
			}
		}
	}
	return true
}

// homSubsumes reports whether there is a homomorphism from f to g fixing
// constants and mapping f's nulls to g's terms consistently.
func homSubsumes(f, g ast.Fact) bool {
	if f.Pred != g.Pred || len(f.Args) != len(g.Args) {
		return false
	}
	var m map[int64]int
	for i, x := range f.Args {
		y := g.Args[i]
		if !x.IsNull() {
			if x != y {
				return false
			}
			continue
		}
		if m == nil {
			m = make(map[int64]int, 4)
		}
		// Map null x to position value y; consistency via the value itself.
		key := x.NullID()
		if prev, ok := m[key]; ok {
			if g.Args[prev] != y {
				return false
			}
		} else {
			m[key] = i
		}
	}
	return true
}

// SkolemChase is the unrestricted (semi-oblivious) chase: no termination
// checks beyond the engines' exact-duplicate elimination. It mirrors
// systems that Skolemize existentials and run plain Datalog (DLV with
// Skolemization, RDFox's unrestricted mode). It terminates only when the
// Skolem chase of the program is finite.
type SkolemChase struct {
	res *analysis.Result
}

// NewSkolemChase builds the policy for an analyzed program.
func NewSkolemChase(res *analysis.Result) *SkolemChase { return &SkolemChase{res: res} }

// NewEDBFact registers a database fact.
func (p *SkolemChase) NewEDBFact(f ast.Fact) *core.FactMeta {
	return &core.FactMeta{Fact: f, Kind: analysis.KindNonLinear}
}

// Derive wraps a derived fact with minimal metadata.
func (p *SkolemChase) Derive(f ast.Fact, ruleID int, parents []*core.FactMeta) *core.FactMeta {
	return &core.FactMeta{Fact: f, Kind: p.res.Rules[ruleID].Kind, RuleID: ruleID}
}

// CheckTermination always admits.
func (p *SkolemChase) CheckTermination(m *core.FactMeta) bool { return true }

var (
	_ core.Policy               = (*TrivialIso)(nil)
	_ core.Policy               = (*RestrictedHom)(nil)
	_ core.Policy               = (*SkolemChase)(nil)
	_ core.SupersessionObserver = (*TrivialIso)(nil)
)
