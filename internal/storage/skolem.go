package storage

import (
	"slices"
	"strconv"

	"repro/internal/term"
)

// SkolemFn names one Skolem function of a Database: a function name
// together with its arity, resolved once by ResolveSkolem. #f(X) and
// #f(X,Y) are two functions. The zero SkolemFn names none.
type SkolemFn uint32

// skolemSig identifies a Skolem function by name and arity.
type skolemSig struct {
	name  string
	arity int
}

// skolemMemo memoizes Skolem applications in ID space (paper Sec. 5: Skolem
// functions are deterministic, injective and range-disjoint). An
// application is its function and the interned IDs of its arguments, kept in
// one []uint32 slab — the function, then its arguments — and found through
// one flatTable from the application's hash, every candidate verified
// against the slab like a relation's duplicate table. Two applications mint
// one null exactly when they have the same function and their arguments are
// term.Identical, which is the store's identity (-0.0 is 0.0, every NaN is
// one value, Int(1) is not Float(1.0)).
//
// nulls holds each application's null in minting order, hence ascending,
// so the application of a null is found by binary search (AppendNullKey).
// Nothing here but the function names holds a pointer. A database makes
// its memo when it resolves its first function.
type skolemMemo struct {
	sigs  []skolemSig // by SkolemFn - 1
	fns   map[skolemSig]SkolemFn
	table flatTable // application hash → application index
	slab  []uint32  // per application: its function, then its argument IDs
	at    []uint32  // per application: its offset in slab
	nulls []int64   // per application: its null's id, ascending
}

// hashSkolem is the FNV-1a hash of an application: its function, then its
// argument IDs. Like hashRow it is a variable only so collision tests can
// force every application onto one tag.
var hashSkolem = func(fn SkolemFn, args []uint32) uint64 {
	h := mixID(fnvOffset64, uint32(fn))
	for _, id := range args {
		h = mixID(h, id)
	}
	return h
}

// ResolveSkolem returns the Skolem function called name with the given
// arity, registering it on first use. Callers resolve a function once (per
// compiled rule and database) and apply it by the SkolemFn.
func (db *Database) ResolveSkolem(name string, arity int) SkolemFn {
	if db.skolems == nil {
		db.skolems = &skolemMemo{fns: make(map[skolemSig]SkolemFn)}
	}
	m := db.skolems
	sig := skolemSig{name, arity}
	if fn, ok := m.fns[sig]; ok {
		return fn
	}
	m.sigs = append(m.sigs, sig)
	fn := SkolemFn(len(m.sigs))
	m.fns[sig] = fn
	return fn
}

// Skolem returns the labelled null of fn applied to the interned arguments
// args (fn's arity of them), minting it from Nulls on first use. Every
// argument must be interned: an application is keyed by IDs, so its
// identity is exactly the store's. A repeated application is one probe and
// allocates nothing; a new one appends to the memo's arrays.
func (db *Database) Skolem(fn SkolemFn, args []uint32) term.Value {
	m := db.skolems
	if len(args) != m.sigs[fn-1].arity {
		panic("storage: Skolem function " + m.sigs[fn-1].name + " applied to " + strconv.Itoa(len(args)) + " arguments, not " + strconv.Itoa(m.sigs[fn-1].arity))
	}
	h := hashSkolem(fn, args)
	tag := tagOf(h)
	for ai, p := m.table.seek(tag, m.table.home(tag)); ai >= 0; ai, p = m.table.seek(tag, p) {
		off := m.at[ai]
		if SkolemFn(m.slab[off]) == fn && slices.Equal(m.slab[off+1:int(off)+1+len(args)], args) {
			return term.Null(m.nulls[ai])
		}
	}
	null := db.Nulls.Fresh()
	m.table.insert(h, len(m.at))
	m.at = append(m.at, uint32(len(m.slab)))
	m.slab = append(append(m.slab, uint32(fn)), args...)
	m.nulls = append(m.nulls, null.NullID())
	return null
}

// AppendNullKey appends the canonical ground key of the labelled null v to
// dst: for a null minted by Skolem, the function's name followed, per
// argument, by "\x00", the argument's kind as a decimal number, "\x01" and
// its rendering (term.Value.AppendString of the interned value); for any
// other null (Fresh, Import) its label "_:nK". Two nulls of one database
// have equal keys exactly when they are the same null — the soundness
// condition of the tag twins that dynamic harmful-join elimination joins on.
// A pure read.
func (db *Database) AppendNullKey(dst []byte, v term.Value) []byte {
	m := db.skolems
	if m == nil {
		return v.AppendString(dst)
	}
	ai, ok := slices.BinarySearch(m.nulls, v.NullID())
	if !ok {
		return v.AppendString(dst)
	}
	off := m.at[ai]
	sig := m.sigs[m.slab[off]-1]
	dst = append(dst, sig.name...)
	for _, id := range m.slab[off+1 : int(off)+1+sig.arity] {
		a := db.in.ValueOf(id)
		dst = append(dst, '\x00')
		dst = strconv.AppendInt(dst, int64(a.Kind()), 10)
		dst = append(dst, '\x01')
		dst = a.AppendString(dst)
	}
	return dst
}

// bytes returns the memory the memo's arrays hold, from their capacities;
// the function names and their map are not counted.
func (m *skolemMemo) bytes() int64 {
	return int64(8*cap(m.table.slots) + 4*cap(m.slab) + 4*cap(m.at) + 8*cap(m.nulls))
}
