package storage

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/term"
)

// appendSkolemKey is the rendering of a Skolem application that keyed the
// string-keyed Skolem memo before applications were keyed by interned IDs.
// It stays as the oracle of AppendNullKey, which must reproduce it byte for
// byte over the interned representatives of the arguments: tag twins hold
// these keys.
func appendSkolemKey(dst []byte, fn string, args []term.Value) []byte {
	dst = append(dst, fn...)
	for _, a := range args {
		dst = append(dst, '\x00')
		dst = strconv.AppendInt(dst, int64(a.Kind()), 10)
		dst = append(dst, '\x01')
		dst = a.AppendString(dst)
	}
	return dst
}

// skolemNames are the function names FuzzSkolem applies: one a prefix of
// another, and an existential's "#base:var" form.
var skolemNames = []string{"#f", "#g", "#f:z", "#r1:Z"}

// skolemArg decodes one fuzzed argument: values the store identifies (±0,
// NaN payloads), values it keeps apart although they render alike
// (Int(1), Float(1.0), Date(1), String("1"); a set and the string of its
// rendering), strings that need quoting, nulls — the last minted among
// them — and plain numbers.
func skolemArg(b byte, last term.Value) term.Value {
	switch b % 20 {
	case 0:
		return term.Float(0)
	case 1:
		return term.Float(math.Copysign(0, -1))
	case 2:
		return term.Float(math.NaN())
	case 3:
		return term.Float(math.Float64frombits(0x7ff0000000000001))
	case 4:
		return term.Float(math.Float64frombits(0xfff8000000000000))
	case 5:
		return term.Int(1)
	case 6:
		return term.Float(1)
	case 7:
		return term.Date(1)
	case 8:
		return term.String("1")
	case 9:
		return term.Bool(true)
	case 10:
		return term.String("a b")
	case 11:
		return term.String("\x00\x01")
	case 12:
		return term.String("")
	case 13:
		return term.String("_:n1")
	case 14:
		return term.Null(1)
	case 15:
		return last
	case 16:
		return term.Int(int64(b))
	case 17:
		return term.Float(float64(b) / 4)
	case 18:
		return term.Set([]term.Value{term.Int(1), term.Float(1)})
	default:
		return term.String("{1,1.0}")
	}
}

// identityKey renders what makes two applications the same under the
// store's identity: the function, its arity, and each argument's kind and
// term.Identical payload.
func identityKey(fn string, args []term.Value) string {
	k := fn + "/" + strconv.Itoa(len(args))
	for _, a := range args {
		k += "|" + strconv.Itoa(int(a.Kind())) + ":"
		if a.Kind() == term.KindString || a.Kind() == term.KindSet {
			k += strconv.Quote(a.Str())
		} else {
			k += strconv.FormatUint(a.IdentityBits(), 16)
		}
	}
	return k
}

// FuzzSkolem drives a database's Skolem memo with a stream of applications
// of mixed functions, arities and argument kinds, interleaved with fresh
// and imported nulls, against a reference map keyed by function, arity and
// term.Identical arguments. An application must return the null the
// reference holds for its key, a new null exactly for a new key; rendered
// keys (AppendNullKey) must be equal exactly when the nulls are; and a
// Skolem null's key must be appendSkolemKey over the interned
// representatives of its arguments. An input of odd length runs with every
// application on one hash, so only the memo's verification tells them
// apart. Inputs are cut at 4 096 bytes.
func FuzzSkolem(f *testing.F) {
	f.Add([]byte{2, 1, 5, 2, 1, 5, 2, 1, 16, 10, 1, 5})        // deterministic, injective, range-disjoint
	f.Add([]byte{2, 1, 0, 2, 1, 1, 2, 1, 2, 2, 1, 3, 2, 1, 4}) // ±0 and NaN payloads
	f.Add([]byte{2, 1, 5, 2, 1, 6, 2, 1, 7, 2, 1, 8, 2, 1, 18, 2, 1, 19})
	f.Add([]byte{2, 1, 5, 2, 2, 5, 5, 2, 0, 0, 1, 9, 2, 1, 15, 1, 1, 2, 1, 5}) // arities, nulls, imports
	f.Add([]byte{2, 3, 10, 11, 12, 26, 2, 13, 14, 15, 1, 200, 2, 1, 15})
	f.Add([]byte{2, 1, 5, 10, 1, 5, 0}) // two functions, one argument row, one hash
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data)%2 == 1 {
			old := hashSkolem
			hashSkolem = func(SkolemFn, []uint32) uint64 { return 42 }
			t.Cleanup(func() { hashSkolem = old })
		}
		data = data[:min(len(data), 4096)]
		db := NewDatabase()
		in := db.Interner()
		byIdentity := make(map[string]term.Value)
		identityOf := make(map[term.Value]string)
		byKey := make(map[string]term.Value)
		keyOf := make(map[term.Value]string)
		// record checks that null's rendered key names it alone.
		record := func(null term.Value) string {
			key := string(db.AppendNullKey(nil, null))
			if other, ok := byKey[key]; ok && other != null {
				t.Fatalf("%v and %v share the key %q", other, null, key)
			}
			if prev, ok := keyOf[null]; ok && prev != key {
				t.Fatalf("%v rendered %q, then %q", null, prev, key)
			}
			byKey[key], keyOf[null] = null, key
			return key
		}
		last := term.Null(2)
		var args []term.Value
		var ids []uint32
		for i := 0; i < len(data); {
			op := data[i]
			i++
			switch op % 8 {
			case 0:
				last = db.Nulls.Fresh()
				if key := record(last); key != last.String() {
					t.Fatalf("fresh %v rendered %q, want its label", last, key)
				}
				continue
			case 1:
				if i < len(data) {
					last = db.Nulls.Import(int64(data[i]) + 1)
					i++
					record(last)
				}
				continue
			}
			name := skolemNames[int(op>>3)%len(skolemNames)]
			arity := 0
			if i < len(data) {
				arity = int(data[i] % 4)
				i++
			}
			args, ids = args[:0], ids[:0]
			for ; len(args) < arity && i < len(data); i++ {
				a := skolemArg(data[i], last)
				args = append(args, a)
				ids = append(ids, in.Intern(a))
			}
			if len(args) < arity {
				break
			}
			null := db.Skolem(db.ResolveSkolem(name, arity), ids)
			if !null.IsNull() {
				t.Fatalf("%s%v = %v, not a null", name, args, null)
			}
			id := identityKey(name, args)
			if want, ok := byIdentity[id]; ok && want != null {
				t.Fatalf("%s%v = %v, but an identical application gave %v", name, args, null, want)
			} else if !ok {
				if prev, taken := identityOf[null]; taken {
					t.Fatalf("%s%v = %v, already the null of %s", name, args, null, prev)
				}
				if _, taken := keyOf[null]; taken {
					t.Fatalf("%s%v = %v, a null minted or imported before", name, args, null)
				}
				byIdentity[id], identityOf[null] = null, id
			}
			key := record(null)
			reps := make([]term.Value, len(ids))
			for k, x := range ids {
				reps[k] = in.ValueOf(x)
			}
			if want := string(appendSkolemKey(nil, name, reps)); key != want {
				t.Fatalf("%s%v renders %q, want %q", name, args, key, want)
			}
			last = null
		}
	})
}

// TestSkolemAllocations: applying a Skolem function to arguments it has
// seen is one probe of the memo and allocates nothing, and a database that
// applies none holds no memo.
func TestSkolemAllocations(t *testing.T) {
	db := NewDatabase()
	if db.skolems != nil {
		t.Fatal("a fresh database holds a Skolem memo")
	}
	fn := db.ResolveSkolem("#f", 2)
	rows := make([][]uint32, 500)
	for i := range rows {
		rows[i] = []uint32{db.Interner().Intern(term.Int(int64(i))), db.Interner().Intern(term.String("x"))}
		db.Skolem(fn, rows[i])
	}
	next := 0
	if n := testing.AllocsPerRun(len(rows)-1, func() { db.Skolem(fn, rows[next]); next++ }); n != 0 {
		t.Errorf("a repeated application costs %.0f allocations, want 0", n)
	}
	if got := db.Nulls.Count(); got != int64(len(rows)) {
		t.Errorf("%d nulls minted for %d applications", got, len(rows))
	}
}
