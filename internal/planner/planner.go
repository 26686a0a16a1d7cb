// Package planner derives cost-based join schedules for compiled rules
// from per-relation statistics — the statistics-driven half of the
// paper's execution optimizer (Sec. 6, Optimizations). Where the static
// schedule compiled into an eval.CompiledRule orders body atoms by how
// many positions are bound, the planner orders them by how many rows it
// expects them to contribute: per-atom selectivity is estimated from
// live-row counts and per-column distinct-ID sketches
// (storage.RelStats), and the atom with the smallest estimated
// intermediate is matched first.
//
// Plans are cached per (rule, pinned atom) and revalidated whenever the
// statistics generation advances: when the live size of a body relation
// has drifted past a threshold since the plan was derived, the plan is
// recomputed (adaptive re-planning — early chase rounds see empty derived
// relations, late rounds see them dominating). Plans only reorder
// candidate enumeration; the engines admit candidates in a canonical order
// (eval.BindingLog.CanonicalOrder) so reasoning output stays
// byte-identical for every plan choice.
//
// Entry points: New builds a Planner over a statistics Catalog;
// PlanFor returns (deriving or revalidating as needed) the plan for one
// pinned rule evaluation; Describe renders a plan with the estimates
// that drove it for -explain output.
package planner

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/storage"
)

// Catalog supplies per-predicate statistics and the generation counter
// that tells the planner a new consistent snapshot exists.
type Catalog interface {
	// RelStats returns the statistics for pred; false when the predicate
	// has no relation (yet), which the planner treats as an empty one.
	RelStats(pred string) (storage.RelStats, bool)
	// Gen identifies the statistics snapshot; it must change whenever the
	// numbers RelStats reports may have changed.
	Gen() uint64
}

// ReplanStride paces adaptive re-planning: the statistics generation of a
// LiveCatalog advances once per stride of derivations, which is when cached
// plans are revalidated against the current relation sizes.
const ReplanStride = 1024

// LiveCatalog reads statistics computed from the database's current
// contents — the view both engines plan against. Its generation is the
// derivations charged to Meter so far divided by ReplanStride; with no
// Meter it stays 0, and each plan is derived once.
type LiveCatalog struct {
	DB    *storage.Database
	Meter *core.Meter
}

// RelStats implements Catalog.
func (c LiveCatalog) RelStats(pred string) (storage.RelStats, bool) {
	return c.DB.RelStats(pred)
}

// Gen implements Catalog.
func (c LiveCatalog) Gen() uint64 {
	if c.Meter == nil {
		return 0
	}
	return uint64(c.Meter.Used() / ReplanStride)
}

// Probe is a presize hint: the plan expects to probe pred through an
// index over the positions in Mask holding about Keys distinct keys.
// Engines pass the hint to storage.Relation.EnsureIndexSized so the
// index's bucket table is allocated once instead of growing through
// rehashes.
type Probe struct {
	Pred string
	Mask uint32
	Keys int
}

// Plan is a derived schedule for one (rule, pinned atom) evaluation.
type Plan struct {
	// Steps is the full execution schedule (matches, assignments,
	// conditions) to hand to eval.Matcher.MatchPinnedSteps.
	Steps []eval.Step
	// Order lists the non-pinned positive atoms in chosen match order.
	Order []int
	// Est[k] is the estimated intermediate-result size after matching
	// Order[k] (candidate bindings in flight at that depth).
	Est []float64
	// Rows[i] is the live-row count of Pos[i]'s relation at planning time
	// (the re-planning basis, also rendered by Describe).
	Rows []int
	// Probes are the index presize hints for the chosen order.
	Probes []Probe
	// Cost is the total estimated probe work of the chosen order.
	Cost float64

	gen uint64 // statistics generation the plan was derived (or revalidated) at
}

type planKey struct {
	cr     *eval.CompiledRule
	pinned int
}

// driftFactor and minDrift control adaptive re-planning: a cached plan is
// recomputed when some body relation's live-row count has grown or shrunk
// by more than driftFactor× since the plan was derived, provided the
// absolute change is at least minDrift rows (tiny relations churn ratios
// without changing any good order).
const (
	driftFactor = 2
	minDrift    = 16
)

// Planner derives and caches plans against a statistics catalog. A
// Planner is not safe for concurrent use: one belongs to one engine
// session.
type Planner struct {
	cat Catalog

	// Worst inverts the cost objective: the planner picks the largest
	// estimated intermediate at every step. A deliberately terrible
	// plan, used by tests to force the worst-case order and assert that
	// reasoning output is plan-independent.
	Worst bool

	plans   map[planKey]*Plan
	derives int
	replans int
}

// New returns a Planner over cat.
func New(cat Catalog) *Planner {
	return &Planner{cat: cat, plans: make(map[planKey]*Plan)}
}

// Derives returns how many plans were computed from scratch; Replans
// how many of those replaced a cached plan after statistics drift.
func (pl *Planner) Derives() int { return pl.derives }

// Replans returns the number of drift-triggered recomputations.
func (pl *Planner) Replans() int { return pl.replans }

// PlanFor returns the plan for evaluating cr with Pos[pinned] bound to a
// delta fact (pinned == len(cr.Pos) plans the unpinned evaluation). The
// cached plan is reused while the statistics generation is unchanged;
// at a new generation it is revalidated cheaply against current live-row
// counts and recomputed only when they drifted past the threshold. The
// returned Plan (and its Steps) must be treated as immutable.
func (pl *Planner) PlanFor(cr *eval.CompiledRule, pinned int) *Plan {
	key := planKey{cr, pinned}
	gen := pl.cat.Gen()
	if p := pl.plans[key]; p != nil {
		if p.gen == gen {
			return p
		}
		if !pl.drifted(cr, p) {
			p.gen = gen
			return p
		}
		pl.replans++
	}
	p := pl.derive(cr, pinned, gen)
	pl.plans[key] = p
	return p
}

// drifted reports whether some body relation's live size moved past the
// re-planning threshold since p was derived.
func (pl *Planner) drifted(cr *eval.CompiledRule, p *Plan) bool {
	for i := range cr.Pos {
		was := p.Rows[i]
		st, _ := pl.cat.RelStats(cr.Pos[i].Pred)
		cur := st.Live
		diff := cur - was
		if diff < 0 {
			diff = -diff
		}
		if diff < minDrift {
			continue
		}
		if cur > was*driftFactor || was > cur*driftFactor {
			return true
		}
	}
	return false
}

// derive computes a fresh plan: greedy smallest-estimated-intermediate
// ordering over the non-pinned atoms, with source order breaking ties —
// the same tie-break the static schedule documents.
func (pl *Planner) derive(cr *eval.CompiledRule, pinned int, gen uint64) *Plan {
	pl.derives++
	n := len(cr.Pos)
	p := &Plan{Order: make([]int, 0, n), Rows: make([]int, n), gen: gen}

	stats := make([]storage.RelStats, n)
	for i := range cr.Pos {
		st, _ := pl.cat.RelStats(cr.Pos[i].Pred)
		stats[i] = st
		p.Rows[i] = st.Live
	}

	bound := make([]bool, cr.NSlots)
	matched := make([]bool, n)
	bindAtom := func(i int) {
		for pos, isv := range cr.Pos[i].IsVar {
			if isv {
				bound[cr.Pos[i].Slot[pos]] = true
			}
		}
	}
	// Assignments bind further slots as soon as their dependencies are
	// matched; mirror that so selectivity sees assignment-bound probes.
	asgDone := make([]bool, len(cr.Assigns))
	flushAssigns := func() {
		for progress := true; progress; {
			progress = false
			for i, a := range cr.Assigns {
				if asgDone[i] {
					continue
				}
				ok := true
				for _, s := range a.Deps {
					ok = ok && bound[s]
				}
				if ok {
					asgDone[i] = true
					bound[a.Slot] = true
					progress = true
				}
			}
		}
	}

	if pinned < n {
		matched[pinned] = true
		bindAtom(pinned)
	}
	flushAssigns()

	inter := 1.0 // candidate bindings in flight (the pinned delta is one row)
	for len(p.Order) < n-boolToInt(pinned < n) {
		best, bestEst := -1, 0.0
		var bestMask uint32
		var bestKeys float64
		for i := 0; i < n; i++ {
			if matched[i] {
				continue
			}
			est, mask, keys := estimateAtom(&cr.Pos[i], stats[i], bound)
			better := best == -1 || est < bestEst
			if pl.Worst {
				better = best == -1 || est > bestEst
			}
			if better {
				best, bestEst, bestMask, bestKeys = i, est, mask, keys
			}
		}
		if best == -1 {
			break
		}
		matched[best] = true
		p.Cost += inter
		inter *= bestEst
		p.Order = append(p.Order, best)
		p.Est = append(p.Est, inter)
		if bestMask != 0 {
			p.Probes = append(p.Probes, Probe{
				Pred: cr.Pos[best].Pred,
				Mask: bestMask,
				Keys: int(math.Ceil(bestKeys)),
			})
		}
		bindAtom(best)
		flushAssigns()
	}

	p.Steps = cr.ScheduleFor(pinned, p.Order)
	return p
}

// estimateAtom estimates how many rows of a's relation match one
// in-flight binding: live rows scaled by the selectivity of every
// position that is a constant or an already-bound slot, using the
// per-column distinct estimates. It also returns the probe mask those
// positions form and the expected distinct key count under that mask
// (capped at the live count) for index presizing.
func estimateAtom(a *eval.CAtom, st storage.RelStats, bound []bool) (est float64, mask uint32, keys float64) {
	live := float64(st.Live)
	est, keys = live, 1.0
	for p := 0; p < a.Arity(); p++ {
		if p >= 32 {
			break // masks are 32-bit; wider atoms scan their tail positions
		}
		if !a.IsVar[p] || bound[a.Slot[p]] {
			mask |= 1 << uint(p)
			d := distinctAt(st, p)
			est /= d
			keys *= d
		}
	}
	if keys > live {
		keys = live
	}
	if est < 0.1 {
		est = 0.1 // a probe is never free: keep ordering sensitive to it
	}
	return est, mask, keys
}

// distinctAt returns the distinct-ID estimate of column p, at least 1.
func distinctAt(st storage.RelStats, p int) float64 {
	if p < len(st.Distinct) && st.Distinct[p] > 1 {
		return st.Distinct[p]
	}
	return 1
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Describe renders the plan for (cr, pinned) with the estimates that
// drove it, as annotation lines under a rule's access-plan entry:
//
//	Δown: own* ⋈ control(est 1) ⋈ company(est 4) — rows own=10 control=1200 company=400
//
// The pinned atom is marked with a trailing *; each joined atom carries
// the estimated intermediate-result size after matching it.
func (pl *Planner) Describe(cr *eval.CompiledRule, pinned int) string {
	p := pl.PlanFor(cr, pinned)
	var sb strings.Builder
	if pinned < len(cr.Pos) {
		fmt.Fprintf(&sb, "Δ%s: %s*", cr.Pos[pinned].Pred, cr.Pos[pinned].Pred)
	} else {
		sb.WriteString("full: ")
	}
	for k, i := range p.Order {
		if k > 0 || pinned < len(cr.Pos) {
			sb.WriteString(" ⋈ ")
		}
		fmt.Fprintf(&sb, "%s(est %s)", cr.Pos[i].Pred, fmtEst(p.Est[k]))
	}
	sb.WriteString(" — rows")
	for i := range cr.Pos {
		fmt.Fprintf(&sb, " %s=%d", cr.Pos[i].Pred, p.Rows[i])
	}
	return sb.String()
}

// fmtEst renders an estimate compactly (integers below 10k, scientific
// notation above).
func fmtEst(v float64) string {
	if v < 10000 {
		return fmt.Sprintf("%.3g", v)
	}
	return fmt.Sprintf("%.2e", v)
}
