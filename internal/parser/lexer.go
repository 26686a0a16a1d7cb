// Package parser implements the lexer and recursive-descent parser for the
// Vadalog surface syntax used throughout this repository (see README).
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF     tokKind = iota
	tokIdent           // lowercase-initial identifier: predicate / function / constant
	tokVar             // uppercase-initial identifier or _: variable
	tokNumber          // integer or float literal
	tokString          // quoted string literal
	tokHash            // #ident: #fail, #t, #f, or skolem function name
	tokAt              // @
	tokLParen          // (
	tokRParen          // )
	tokComma           // ,
	tokDot             // .
	tokArrow           // ->
	tokAssign          // =
	tokEq              // ==
	tokNeq             // !=
	tokLt              // <
	tokLe              // <=
	tokGt              // >
	tokGe              // >=
	tokPlus            // +
	tokMinus           // -
	tokStar            // *
	tokSlash           // /
	tokPercent         // %%  (escaped: '%' starts a comment)
	tokCaret           // ^
	tokAndAnd          // &&
	tokOrOr            // ||
	tokNot             // keyword not
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokHash:
		return "#-token"
	case tokAt:
		return "@"
	case tokLParen:
		return "("
	case tokRParen:
		return ")"
	case tokComma:
		return ","
	case tokDot:
		return "."
	case tokArrow:
		return "->"
	case tokAssign:
		return "="
	case tokEq:
		return "=="
	case tokNeq:
		return "!="
	case tokLt:
		return "<"
	case tokLe:
		return "<="
	case tokGt:
		return ">"
	case tokGe:
		return ">="
	case tokPlus:
		return "+"
	case tokMinus:
		return "-"
	case tokStar:
		return "*"
	case tokSlash:
		return "/"
	case tokPercent:
		return "%"
	case tokCaret:
		return "^"
	case tokAndAnd:
		return "&&"
	case tokOrOr:
		return "||"
	case tokNot:
		return "not"
	default:
		return "?"
	}
}

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errorf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '%' && (l.pos+1 >= len(l.src) || l.src[l.pos+1] != '%'):
			// '%' starts a line comment; '%%' is the modulo operator.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	t := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		t.kind = tokEOF
		return t, nil
	}
	c := l.peekByte()
	switch {
	case c == '(':
		l.advance()
		t.kind = tokLParen
	case c == ')':
		l.advance()
		t.kind = tokRParen
	case c == ',':
		l.advance()
		t.kind = tokComma
	case c == '.':
		l.advance()
		t.kind = tokDot
	case c == '@':
		l.advance()
		t.kind = tokAt
	case c == '+':
		l.advance()
		t.kind = tokPlus
	case c == '*':
		l.advance()
		t.kind = tokStar
	case c == '/':
		l.advance()
		t.kind = tokSlash
	case c == '^':
		l.advance()
		t.kind = tokCaret
	case c == '%':
		l.advance()
		if l.peekByte() != '%' {
			return t, l.errorf("stray %% (use %%%% for modulo; %% starts a comment)")
		}
		l.advance()
		t.kind = tokPercent
	case c == '&':
		l.advance()
		if l.peekByte() != '&' {
			return t, l.errorf("expected && after &")
		}
		l.advance()
		t.kind = tokAndAnd
	case c == '|':
		l.advance()
		if l.peekByte() != '|' {
			return t, l.errorf("expected || after |")
		}
		l.advance()
		t.kind = tokOrOr
	case c == '-':
		l.advance()
		if l.peekByte() == '>' {
			l.advance()
			t.kind = tokArrow
		} else {
			t.kind = tokMinus
		}
	case c == '=':
		l.advance()
		if l.peekByte() == '=' {
			l.advance()
			t.kind = tokEq
		} else {
			t.kind = tokAssign
		}
	case c == '!':
		l.advance()
		if l.peekByte() != '=' {
			return t, l.errorf("expected != after !")
		}
		l.advance()
		t.kind = tokNeq
	case c == '<':
		l.advance()
		if l.peekByte() == '=' {
			l.advance()
			t.kind = tokLe
		} else {
			t.kind = tokLt
		}
	case c == '>':
		l.advance()
		if l.peekByte() == '=' {
			l.advance()
			t.kind = tokGe
		} else {
			t.kind = tokGt
		}
	case c == '"':
		return l.lexString()
	case c == '#':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.advance()
		}
		if l.pos == start {
			return t, l.errorf("expected identifier after #")
		}
		t.kind = tokHash
		t.text = l.src[start:l.pos]
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.advance()
		}
		t.text = l.src[start:l.pos]
		switch {
		case t.text == "not":
			t.kind = tokNot
		case t.text == "_" || unicode.IsUpper(rune(t.text[0])):
			t.kind = tokVar
		default:
			t.kind = tokIdent
		}
	default:
		return t, l.errorf("unexpected character %q", c)
	}
	return t, nil
}

func (l *lexer) lexString() (token, error) {
	t := token{kind: tokString, line: l.line, col: l.col}
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return t, l.errorf("unterminated string literal")
		}
		c := l.advance()
		switch c {
		case '"':
			t.text = sb.String()
			return t, nil
		case '\\':
			if l.pos >= len(l.src) {
				return t, l.errorf("unterminated escape in string literal")
			}
			// The escape set matches what strconv.Quote emits, so any
			// rendered string constant parses back to the same value.
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case 'a':
				sb.WriteByte('\a')
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'v':
				sb.WriteByte('\v')
			case '\\', '"', '\'':
				sb.WriteByte(e)
			case 'x':
				v, err := l.hexDigits(2)
				if err != nil {
					return t, err
				}
				sb.WriteByte(byte(v))
			case 'u':
				v, err := l.hexDigits(4)
				if err != nil {
					return t, err
				}
				sb.WriteRune(rune(v))
			case 'U':
				v, err := l.hexDigits(8)
				if err != nil {
					return t, err
				}
				if v > 0x10FFFF {
					return t, l.errorf("rune escape \\U%08X out of range", v)
				}
				sb.WriteRune(rune(v))
			default:
				return t, l.errorf("unknown escape \\%c", e)
			}
		case '\n':
			return t, l.errorf("newline in string literal")
		default:
			sb.WriteByte(c)
		}
	}
}

// hexDigits consumes exactly n hex digits and returns their value.
func (l *lexer) hexDigits(n int) (uint32, error) {
	var v uint32
	for i := 0; i < n; i++ {
		if l.pos >= len(l.src) {
			return 0, l.errorf("unterminated escape in string literal")
		}
		c := l.advance()
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return 0, l.errorf("bad hex digit %q in string escape", c)
		}
		v = v<<4 | d
	}
	return v, nil
}

func (l *lexer) lexNumber() (token, error) {
	t := token{kind: tokNumber, line: l.line, col: l.col}
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.advance()
	}
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		l.advance()
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.advance()
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.advance()
		if l.peekByte() == '+' || l.peekByte() == '-' {
			l.advance()
		}
		if d := l.peekByte(); d < '0' || d > '9' {
			l.pos = save // not an exponent after all
		} else {
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.advance()
			}
		}
	}
	t.text = l.src[start:l.pos]
	return t, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentByte(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
