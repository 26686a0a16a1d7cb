// Package term implements the Vadalog value model: typed constants and
// labelled nulls (Skolem functions are memoized by storage.Database).
//
// Runtime facts contain only constants and labelled nulls; variables exist
// in rules and are compiled away before execution. Value is a small
// comparable struct so it can be used directly as a map key, which the
// engine relies on for hash joins, indexes and isomorphism checks.
package term

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types of a Value.
type Kind uint8

// The Vadalog data types. Null is a labelled null (marked null in data
// exchange terminology); it is not a SQL NULL.
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindDate // days since epoch, kept as an integer
	KindNull // labelled null ν_i
	KindSet  // composite set (monotonic union), canonical "{a,b,c}" form
)

// String returns the lowercase name of the kind as used in error messages.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindDate:
		return "date"
	case KindNull:
		return "null"
	case KindSet:
		return "set"
	default:
		return "invalid"
	}
}

// Value is a single Vadalog runtime value. The zero Value is invalid.
// Value is comparable: two Values are == iff they denote the same constant
// or the same labelled null.
type Value struct {
	kind Kind
	i    int64 // int, bool (0/1), date, null id
	f    float64
	s    string
}

// String constructs a string constant.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int constructs an integer constant.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float constructs a floating-point constant.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool constructs a boolean constant.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// Date constructs a date constant from days since the epoch.
func Date(days int64) Value { return Value{kind: KindDate, i: days} }

// Null constructs the labelled null with the given id.
func Null(id int64) Value { return Value{kind: KindNull, i: id} }

// Set constructs a set constant, the composite type produced by monotonic
// union (munion, paper Sec. 5): elements are deduplicated, sorted in the
// total order of Compare (ties between numerically equal Int/Float
// elements broken by kind, NaN below every number, so the canonical form
// is unique) and rendered
// as "{e1,e2,...}", so two sets are == iff they contain the same elements
// and sets remain usable as comparable map keys. Elements render with
// Value.String except integral floats, which keep a ".0" suffix so
// Int(1) and Float(1.0) — distinct values since the interned-ID cleanup —
// stay distinguishable; SetElems is the inverse.
func Set(elems []Value) Value {
	dedup := make(map[Value]bool, len(elems))
	uniq := make([]Value, 0, len(elems))
	for _, v := range elems {
		if !dedup[v] {
			dedup[v] = true
			uniq = append(uniq, v)
		}
	}
	slices.SortFunc(uniq, func(a, b Value) int {
		// Compare ties NaN with every number; NaN sorts below them all, so
		// the order is total and the rendering independent of elems' order.
		if an, bn := a.f != a.f, b.f != b.f; an != bn && a.IsNumeric() && b.IsNumeric() {
			if an {
				return -1
			}
			return 1
		}
		if c := Compare(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.kind, b.kind)
	})
	var sb strings.Builder
	sb.WriteByte('{')
	for i, v := range uniq {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(setElemString(v))
	}
	sb.WriteByte('}')
	return Value{kind: KindSet, s: sb.String()}
}

// setElemString renders a set element: like Value.String, but integral
// floats keep an explicit ".0" so they cannot collide with the rendering
// of the equal Int (strings that look numeric are already quoted by
// needsQuoting, so no other kinds can collide).
func setElemString(v Value) string {
	s := v.String()
	if v.kind == KindFloat && !math.IsNaN(v.f) && !math.IsInf(v.f, 0) &&
		!strings.ContainsAny(s, ".eE") {
		return s + ".0"
	}
	return s
}

// SetElems decodes the elements of a set constant, the inverse of Set: it
// splits the canonical "{...}" form at top-level commas (respecting quoted
// strings and nested braces) and parses each element back into a Value.
// Quoted elements decode to strings, "_:nK" to labelled nulls, "{...}" to
// nested sets, and the rest through ParseLiteral — so, like every rendered
// key in this repository, a bare string that happens to look like a date
// ("d123") or a float whose rendering drops the decimal point ("1")
// decodes to the literal ParseLiteral chooses. It returns nil on non-set
// values.
func (v Value) SetElems() []Value {
	if v.kind != KindSet || len(v.s) < 2 {
		return nil
	}
	body := v.s[1 : len(v.s)-1]
	if body == "" {
		return nil
	}
	var elems []Value
	depth, start := 0, 0
	inQuote := false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case inQuote:
			if c == '\\' {
				i++
			} else if c == '"' {
				inQuote = false
			}
		case c == '"':
			inQuote = true
		case c == '{':
			depth++
		case c == '}':
			depth--
		case c == ',' && depth == 0:
			elems = append(elems, parseSetElem(body[start:i]))
			start = i + 1
		}
	}
	elems = append(elems, parseSetElem(body[start:]))
	return elems
}

func parseSetElem(s string) Value {
	if len(s) > 1 && s[0] == '{' && s[len(s)-1] == '}' {
		return Value{kind: KindSet, s: s}
	}
	if len(s) > 3 && s[:3] == "_:n" {
		if id, err := strconv.ParseInt(s[3:], 10, 64); err == nil {
			return Null(id)
		}
	}
	v, err := ParseLiteral(s)
	if err != nil {
		return String(s)
	}
	return v
}

// Kind reports the runtime type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is a labelled null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsGround reports whether v is a constant (not a labelled null).
func (v Value) IsGround() bool { return v.kind != KindNull && v.kind != KindInvalid }

// NullID returns the id of a labelled null; it panics on other kinds.
func (v Value) NullID() int64 {
	if v.kind != KindNull {
		panic("term: NullID on non-null value " + v.String())
	}
	return v.i
}

// Str returns the string payload of a string constant.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload of an int or date constant.
func (v Value) IntVal() int64 { return v.i }

// FloatVal returns the float payload; for int values it widens.
func (v Value) FloatVal() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// BoolVal returns the boolean payload.
func (v Value) BoolVal() bool { return v.i != 0 }

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders v in the textual syntax used across the repository:
// strings are quoted only when needed, nulls render as _:nK.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		if needsQuoting(v.s) {
			return strconv.Quote(v.s)
		}
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		if v.i != 0 {
			return "#t"
		}
		return "#f"
	case KindDate:
		return "d" + strconv.FormatInt(v.i, 10)
	case KindNull:
		return "_:n" + strconv.FormatInt(v.i, 10)
	case KindSet:
		return v.s
	default:
		return "<invalid>"
	}
}

// AppendString appends the bytes of v.String() to dst and returns the
// extended buffer — the allocation-free renderer behind canonical output
// ordering, post-processing group keys and Skolem keys, which render into
// reused buffers instead of building a string per value.
func (v Value) AppendString(dst []byte) []byte {
	switch v.kind {
	case KindString:
		if needsQuoting(v.s) {
			return strconv.AppendQuote(dst, v.s)
		}
		return append(dst, v.s...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindBool:
		if v.i != 0 {
			return append(dst, "#t"...)
		}
		return append(dst, "#f"...)
	case KindDate:
		return strconv.AppendInt(append(dst, 'd'), v.i, 10)
	case KindNull:
		return strconv.AppendInt(append(dst, "_:n"...), v.i, 10)
	case KindSet:
		return append(dst, v.s...)
	default:
		return append(dst, "<invalid>"...)
	}
}

func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return true
			}
		case r == '_' || r == '-' || r == '.':
		default:
			return true
		}
	}
	return false
}

// Compare totally orders values: first by kind, then by payload.
// The order on kinds is arbitrary but fixed; numeric int/float compare by
// numeric value when kinds coincide with the widened comparison used by
// conditions (see CompareNumeric).
func Compare(a, b Value) int {
	if a.kind != b.kind {
		// Numeric cross-kind comparison keeps ints and floats in one order.
		if a.IsNumeric() && b.IsNumeric() {
			return compareFloat(a.FloatVal(), b.FloatVal())
		}
		return int(a.kind) - int(b.kind)
	}
	switch a.kind {
	case KindString, KindSet:
		return strings.Compare(a.s, b.s)
	case KindInt, KindDate, KindBool, KindNull:
		return compareInt(a.i, b.i)
	case KindFloat:
		return compareFloat(a.f, b.f)
	default:
		return 0
	}
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports semantic equality: identical values, or int/float with the
// same numeric value.
func Equal(a, b Value) bool {
	if a == b {
		return true
	}
	if a.IsNumeric() && b.IsNumeric() {
		return a.FloatVal() == b.FloatVal()
	}
	return false
}

// canonicalNaN is the payload every NaN takes under Identical.
const canonicalNaN = 0x7ff8000000000001

// IdentityBits returns the fixed-size payload Identical compares for a
// value that is neither a string nor a set: the integer payload of an int,
// bool, date or null, or a float's IEEE bits with every NaN mapped to one
// pattern and -0.0 to 0.0's.
func (v Value) IdentityBits() uint64 {
	if v.kind != KindFloat {
		return uint64(v.i)
	}
	switch f := v.f; {
	case f != f:
		return canonicalNaN
	case f == 0:
		return 0
	default:
		return math.Float64bits(f)
	}
}

// Identical reports whether a and b are one value under the identity the
// store keys values by — storage.Interner's IDs and the termination
// strategy's isomorphism and pattern checks: the same kind and the same
// payload, where every float NaN is one value and -0.0 is 0.0. Kinds never
// mix (Int(1), Float(1.0), Date(1) and String("1") are four values). It
// differs from == only for NaN, which == never equates.
func Identical(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	if a.kind == KindString || a.kind == KindSet {
		return a.s == b.s
	}
	return a.IdentityBits() == b.IdentityBits()
}

// hashSeed keys Hash's string hashing for the process.
var hashSeed = maphash.MakeSeed()

// Hash returns a 64-bit hash of v consistent with Identical: identical
// values hash alike. Strings and sets hash by their text, other kinds by
// IdentityBits; the kind is mixed in either way, and the finalizer
// (MurmurHash3's fmix64) leaves every output bit depending on every input
// bit — a table that keys on the two halves folded together
// (storage.Interner) still tells apart floats whose low payload bits are
// all zero. The hash is stable within a process only.
func (v Value) Hash() uint64 {
	x := v.IdentityBits()
	if v.kind == KindString || v.kind == KindSet {
		x = maphash.String(hashSeed, v.s)
	}
	x ^= uint64(v.kind) << 56
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// NullFactory numbers labelled nulls: it mints fresh ones and adopts
// imported ones, and no two nulls it hands out share an id. It does not
// memoize Skolem applications — storage.Database does, in ID space, and
// mints each new application's null here, so Skolem nulls and fresh ones
// draw from one sequence.
type NullFactory struct {
	next int64
	// imported maps the label of every null adopted by Import to its id
	// here (itself unless renamed); nil until the first import.
	imported map[int64]int64
}

// NewNullFactory returns a factory whose first fresh null has id 1.
func NewNullFactory() *NullFactory {
	return &NullFactory{next: 1}
}

// Fresh returns a brand-new labelled null.
func (nf *NullFactory) Fresh() Value {
	id := nf.next
	nf.next++
	return Null(id)
}

// Count returns how many nulls have been minted so far.
func (nf *NullFactory) Count() int64 { return nf.next - 1 }

// Import adopts a labelled null that arrives with loaded data (a "_:nK"
// cell of a record-manager row, a staged fact) and returns the null it is
// inside this factory. An id the factory has not reached keeps its label,
// and the factory advances past it so nothing minted later can collide. An
// id it has already passed and did not itself import belongs to a null the
// run minted — rows may arrive while rules fire — so the imported null is
// renamed to a fresh id. Either way the answer is remembered: the same
// label imports to the same null for the factory's lifetime, which keeps a
// re-fed chunk a set of duplicates.
func (nf *NullFactory) Import(id int64) Value {
	if to, ok := nf.imported[id]; ok {
		return Null(to)
	}
	to := id
	if id >= nf.next {
		nf.next = id + 1
	} else {
		to = nf.next
		nf.next++
	}
	if nf.imported == nil {
		nf.imported = make(map[int64]int64)
	}
	nf.imported[id] = to
	return Null(to)
}

// ParseLiteral parses the textual form of a constant: quoted strings,
// integers, floats, #t/#f booleans. Bare identifiers are returned as
// string constants. It is the inverse of Value.String for ground values.
//
// The numeric shapes are strconv's — base-10 ParseInt, then ParseFloat
// (decimal and hexadecimal floats, digit-separating underscores, and
// case-insensitively "inf", "infinity", "nan") — but the text is classified
// first: everything those two accept starts, after an optional sign, with a
// digit or '.', or is one of the three words. Any other text is a string,
// returned without two failed parses and their allocations.
func ParseLiteral(s string) (Value, error) {
	switch {
	case s == "":
		return Value{}, fmt.Errorf("term: empty literal")
	case s == "#t":
		return Bool(true), nil
	case s == "#f":
		return Bool(false), nil
	case s[0] == '"':
		u, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("term: bad string literal %s: %w", s, err)
		}
		return String(u), nil
	case !numericShape(s):
		return String(s), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f), nil
	}
	return String(s), nil
}

// numericShape reports whether the non-empty s could be accepted by
// strconv.ParseInt(s, 10, 64) or strconv.ParseFloat(s, 64). It errs only
// towards true: strconv still decides.
func numericShape(s string) bool {
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	if c := s[0]; c == '.' || (c >= '0' && c <= '9') {
		return true
	}
	return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
}

// ParseCanonicalSet parses the braced "{...}" rendering of a set value
// (the form Value.String produces) back into a set, re-canonicalizing
// the elements so the result is == to the set that was rendered. ok is
// false when s is not braced.
func ParseCanonicalSet(s string) (Value, bool) {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return Value{}, false
	}
	raw := Value{kind: KindSet, s: s}
	return Set(raw.SetElems()), true
}

// SortValues sorts a slice of values in the total order of Compare.
func SortValues(vs []Value) {
	slices.SortFunc(vs, Compare)
}
