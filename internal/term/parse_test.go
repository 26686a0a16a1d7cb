package term

import (
	"fmt"
	"math"
	"strconv"
	"testing"
)

// referenceParseLiteral is ParseLiteral as it stood before the text was
// classified ahead of strconv: ParseInt, then ParseFloat, then a string.
// It is the oracle ParseLiteral must agree with on every input.
func referenceParseLiteral(s string) (Value, error) {
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
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f), nil
	}
	return String(s), nil
}

// sameValue is == except that floats compare by bits, so a NaN equals
// itself and -0.0 differs from 0.0.
func sameValue(a, b Value) bool {
	if a.kind == KindFloat && b.kind == KindFloat {
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	}
	return a == b
}

var literalCorpus = []string{
	"", "n1", "n123", "e5", "E5", ".", "+", "-", "+.", "-.", "..", "+5", "-5", "-.5", "+.5", ".5", "5.",
	"1e5", "1E+3", "1e", "1e+", "0x1p-2", "0X1P-2", "0x", "0x1", "-0x1p3", "1_000", "1_0.5_0", "_1", "1_", "1__0",
	"1.2.3", "007", "-0", "-0.0", "+0.0", "0", "9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809", "1e400", "-1e400", "4.9e-324", "1e-400",
	"Inf", "inf", "INF", "+inf", "-inf", "+Inf", "-Infinity", "infinity", "INFINITY", "Infinit", "infinityx",
	"infx", "in", "i", "nan", "NaN", "NAN", "+nan", "-nan", "nanx", "na", "n",
	"#t", "#f", "#T", "#", "#tt", `"quoted"`, `"with \"escape\""`, `"unterminated`, `"`, `""`, `"a"b"`,
	"d12", "d", "_:n7", "_:n", "{a,b}", "{}", "abc", "a b", " 1", "1 ", "\t1", "1\n", "x1", "-x", "+x", "--1", "+-1", "-+1",
	"١٢٣", "１２３", "1١", "٣.٥", "²", "½", "ınf", "İnf", "ſ", "naN", "ℕan", "\x00", "\xff", "1\x00",
	"true", "false", "null", "0b101", "0o17", "0e0", "0E0", ".e1", "1.e1", "e", "E", "p", "1p3", "0x1.8p1", "0x.p1", "0x_1p0",
}

// TestParseLiteralMatchesReference: classifying the text before strconv
// changes no result — same kind, same payload (floats bit for bit), same
// error text — on every shape a cell can take.
func TestParseLiteralMatchesReference(t *testing.T) {
	for _, s := range literalCorpus {
		checkAgainstReference(t, s)
	}
}

func checkAgainstReference(t *testing.T, s string) {
	t.Helper()
	want, wantErr := referenceParseLiteral(s)
	got, gotErr := ParseLiteral(s)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("ParseLiteral(%q) error = %v, reference %v", s, gotErr, wantErr)
	}
	if !sameValue(got, want) {
		t.Fatalf("ParseLiteral(%q) = %v (%v), reference %v (%v)", s, got, got.Kind(), want, want.Kind())
	}
}

// FuzzParseLiteral searches for a text the classifier gets wrong:
// `go test ./internal/term -run '^$' -fuzz FuzzParseLiteral`.
func FuzzParseLiteral(f *testing.F) {
	for _, s := range literalCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkAgainstReference(t, s) })
}

// TestParseLiteralStringCellsDoNotAllocate: a bare identifier never reaches
// strconv, whose two failed parses each built an error around a copy of
// the text.
func TestParseLiteralStringCellsDoNotAllocate(t *testing.T) {
	for _, s := range []string{"n123", "acme", "e5", "x", "infx", "-x", "co_17"} {
		s := s
		if n := testing.AllocsPerRun(100, func() { ParseLiteral(s) }); n != 0 {
			t.Errorf("ParseLiteral(%q) allocates %.0f times, want 0", s, n)
		}
	}
}
