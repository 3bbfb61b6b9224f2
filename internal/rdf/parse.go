package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode"
)

// ParseError reports a syntax error with its position in the input.
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parser reads RDF statements from a stream of N-Triples or a practical
// Turtle subset: @prefix / PREFIX directives, prefixed names, the `a`
// keyword, `;` predicate lists, `,` object lists, and bare numeric/boolean
// literal shorthands. This covers everything the SOFOS dataset generators and
// test fixtures emit.
type Parser struct {
	r        *bufio.Reader
	line     int
	col      int
	prefixes map[string]string
	base     string
	peeked   rune
	hasPeek  bool
	eof      bool
}

// NewParser returns a parser reading from r.
func NewParser(r io.Reader) *Parser {
	return &Parser{
		r:        bufio.NewReaderSize(r, 64<<10),
		line:     1,
		col:      0,
		prefixes: make(map[string]string),
	}
}

// ParseAll reads every triple until EOF.
func (p *Parser) ParseAll() ([]Triple, error) {
	var out []Triple
	err := p.Each(func(t Triple) error {
		out = append(out, t)
		return nil
	})
	return out, err
}

// Each invokes fn for each parsed triple. Parsing stops on the first error
// from the input or from fn.
func (p *Parser) Each(fn func(Triple) error) error {
	for {
		p.skipWS()
		if p.eof {
			return nil
		}
		r, err := p.peek()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if r == '@' || r == 'P' || r == 'p' || r == 'B' || r == 'b' {
			// Possible directive: @prefix, @base, PREFIX, BASE. Statements
			// starting with a prefixed name beginning in p/b are
			// disambiguated inside parseDirectiveOrStatement.
			handled, err := p.tryDirective()
			if err != nil {
				return err
			}
			if handled {
				continue
			}
		}
		if err := p.parseStatement(fn); err != nil {
			return err
		}
	}
}

// errf produces a positioned parse error.
func (p *Parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

// next reads one rune, tracking position.
func (p *Parser) next() (rune, error) {
	if p.hasPeek {
		p.hasPeek = false
		r := p.peeked
		p.advancePos(r)
		return r, nil
	}
	r, _, err := p.r.ReadRune()
	if err != nil {
		if err == io.EOF {
			p.eof = true
		}
		return 0, err
	}
	p.advancePos(r)
	return r, nil
}

// advancePos updates the line/column counters for a consumed rune.
func (p *Parser) advancePos(r rune) {
	if r == '\n' {
		p.line++
		p.col = 0
	} else {
		p.col++
	}
}

// peek returns the next rune without consuming it.
func (p *Parser) peek() (rune, error) {
	if p.hasPeek {
		return p.peeked, nil
	}
	r, _, err := p.r.ReadRune()
	if err != nil {
		if err == io.EOF {
			p.eof = true
		}
		return 0, err
	}
	p.peeked = r
	p.hasPeek = true
	return r, nil
}

// skipWS consumes whitespace and # comments.
func (p *Parser) skipWS() {
	for {
		r, err := p.peek()
		if err != nil {
			return
		}
		switch {
		case r == '#':
			for {
				r2, err := p.next()
				if err != nil || r2 == '\n' {
					break
				}
			}
		case unicode.IsSpace(r):
			p.next() //nolint:errcheck // peek succeeded
		default:
			return
		}
	}
}

// tryDirective consumes a @prefix/@base/PREFIX/BASE directive if present.
// It reports whether a directive was handled.
func (p *Parser) tryDirective() (bool, error) {
	r, _ := p.peek()
	if r == '@' {
		p.next() //nolint:errcheck
		word, err := p.readWord()
		if err != nil {
			return false, err
		}
		switch word {
		case "prefix":
			return true, p.parsePrefixDecl(true)
		case "base":
			return true, p.parseBaseDecl(true)
		default:
			return false, p.errf("unknown directive @%s", word)
		}
	}
	// Could be SPARQL-style PREFIX/BASE or the start of a prefixed name.
	word, err := p.peekWord()
	if err != nil {
		return false, err
	}
	switch strings.ToUpper(word) {
	case "PREFIX":
		p.readWord() //nolint:errcheck // peekWord succeeded
		return true, p.parsePrefixDecl(false)
	case "BASE":
		p.readWord() //nolint:errcheck
		return true, p.parseBaseDecl(false)
	}
	return false, nil
}

// readWord consumes a run of letters.
func (p *Parser) readWord() (string, error) {
	var b strings.Builder
	for {
		r, err := p.peek()
		if err != nil || !unicode.IsLetter(r) {
			break
		}
		b.WriteRune(r)
		p.next() //nolint:errcheck
	}
	if b.Len() == 0 {
		return "", p.errf("expected a word")
	}
	return b.String(), nil
}

// peekWord looks ahead at a run of letters without consuming input beyond
// the buffered reader's internal peek window.
func (p *Parser) peekWord() (string, error) {
	// Peek up to 16 bytes: enough to recognize PREFIX/BASE.
	var pending []byte
	if p.hasPeek {
		pending = append(pending, string(p.peeked)...)
	}
	buf, _ := p.r.Peek(16)
	pending = append(pending, buf...)
	var b strings.Builder
	for _, c := range string(pending) {
		if !unicode.IsLetter(c) {
			break
		}
		b.WriteRune(c)
	}
	return b.String(), nil
}

// parsePrefixDecl parses `pfx: <iri>` with optional trailing dot.
func (p *Parser) parsePrefixDecl(turtleStyle bool) error {
	p.skipWS()
	pfx, err := p.readPrefixLabel()
	if err != nil {
		return err
	}
	p.skipWS()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.prefixes[pfx] = iri
	p.skipWS()
	if r, err := p.peek(); err == nil && r == '.' {
		p.next() //nolint:errcheck
	} else if turtleStyle {
		return p.errf("expected '.' after @prefix directive")
	}
	return nil
}

// parseBaseDecl parses `<iri>` with optional trailing dot.
func (p *Parser) parseBaseDecl(turtleStyle bool) error {
	p.skipWS()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.base = iri
	p.skipWS()
	if r, err := p.peek(); err == nil && r == '.' {
		p.next() //nolint:errcheck
	} else if turtleStyle {
		return p.errf("expected '.' after @base directive")
	}
	return nil
}

// readPrefixLabel reads `label:` returning the label (possibly empty).
func (p *Parser) readPrefixLabel() (string, error) {
	var b strings.Builder
	for {
		r, err := p.peek()
		if err != nil {
			return "", p.errf("unexpected EOF in prefix label")
		}
		if r == ':' {
			p.next() //nolint:errcheck
			return b.String(), nil
		}
		if unicode.IsSpace(r) {
			return "", p.errf("expected ':' in prefix declaration")
		}
		b.WriteRune(r)
		p.next() //nolint:errcheck
	}
}

// parseStatement parses one `subject predicateObjectList .` statement,
// supporting `;` and `,` lists, and feeds resulting triples to fn.
func (p *Parser) parseStatement(fn func(Triple) error) error {
	subj, err := p.parseTerm()
	if err != nil {
		return err
	}
	if subj.Kind == KindLiteral {
		return p.errf("literal %s cannot be a subject", subj)
	}
	for {
		p.skipWS()
		pred, err := p.parseVerb()
		if err != nil {
			return err
		}
		for {
			p.skipWS()
			obj, err := p.parseTerm()
			if err != nil {
				return err
			}
			if err := fn(Triple{S: subj, P: pred, O: obj}); err != nil {
				return err
			}
			p.skipWS()
			r, err := p.peek()
			if err != nil {
				return p.errf("unexpected EOF, expected '.', ';' or ','")
			}
			if r == ',' {
				p.next() //nolint:errcheck
				continue
			}
			break
		}
		r, err := p.peek()
		if err != nil {
			return p.errf("unexpected EOF, expected '.' or ';'")
		}
		switch r {
		case ';':
			p.next() //nolint:errcheck
			p.skipWS()
			// Turtle allows a trailing ';' before '.'.
			if r2, err := p.peek(); err == nil && r2 == '.' {
				p.next() //nolint:errcheck
				return nil
			}
			continue
		case '.':
			p.next() //nolint:errcheck
			return nil
		default:
			return p.errf("expected '.' or ';', got %q", r)
		}
	}
}

// parseVerb parses a predicate: an IRI, prefixed name, or the `a` keyword.
func (p *Parser) parseVerb() (Term, error) {
	r, err := p.peek()
	if err != nil {
		return Term{}, p.errf("unexpected EOF, expected predicate")
	}
	if r == 'a' {
		// `a` only if followed by whitespace.
		if p.hasPeek {
			buf, _ := p.r.Peek(1)
			if len(buf) == 1 && isWSByte(buf[0]) {
				p.next() //nolint:errcheck
				return NewIRI(RDFType), nil
			}
		}
	}
	t, err := p.parseTerm()
	if err != nil {
		return Term{}, err
	}
	if t.Kind != KindIRI {
		return Term{}, p.errf("predicate must be an IRI, got %s", t)
	}
	return t, nil
}

// isWSByte reports whether b is ASCII whitespace.
func isWSByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// parseTerm parses one term: IRI ref, blank node, literal, prefixed name, or
// bare numeric/boolean shorthand.
func (p *Parser) parseTerm() (Term, error) {
	p.skipWS()
	r, err := p.peek()
	if err != nil {
		return Term{}, p.errf("unexpected EOF, expected term")
	}
	switch {
	case r == '<':
		iri, err := p.parseIRIRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case r == '_':
		return p.parseBlank()
	case r == '"':
		return p.parseLiteral()
	case r == '+' || r == '-' || unicode.IsDigit(r):
		return p.parseNumericShorthand()
	case r == 't' || r == 'f':
		if t, ok, err := p.tryBooleanShorthand(); err != nil {
			return Term{}, err
		} else if ok {
			return t, nil
		}
		return p.parsePrefixedName()
	default:
		return p.parsePrefixedName()
	}
}

// parseIRIRef parses `<...>` resolving against @base for relative IRIs.
func (p *Parser) parseIRIRef() (string, error) {
	r, err := p.next()
	if err != nil || r != '<' {
		return "", p.errf("expected '<'")
	}
	var b strings.Builder
	for {
		r, err := p.next()
		if err != nil {
			return "", p.errf("unexpected EOF inside IRI")
		}
		if r == '>' {
			break
		}
		if r == '\n' {
			return "", p.errf("newline inside IRI")
		}
		b.WriteRune(r)
	}
	iri := b.String()
	if p.base != "" && !strings.Contains(iri, "://") && !strings.HasPrefix(iri, "urn:") {
		iri = p.base + iri
	}
	return iri, nil
}

// parseBlank parses `_:label`.
func (p *Parser) parseBlank() (Term, error) {
	p.next() //nolint:errcheck // '_'
	r, err := p.next()
	if err != nil || r != ':' {
		return Term{}, p.errf("expected ':' after '_' in blank node")
	}
	var b strings.Builder
	for {
		r, err := p.peek()
		if err != nil || !isNameChar(r) {
			break
		}
		b.WriteRune(r)
		p.next() //nolint:errcheck
	}
	if b.Len() == 0 {
		return Term{}, p.errf("empty blank node label")
	}
	return NewBlank(b.String()), nil
}

// isNameChar reports whether r may appear in a blank node label or the local
// part of a prefixed name.
func isNameChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.'
}

// parseLiteral parses a quoted literal with optional @lang or ^^<type>.
func (p *Parser) parseLiteral() (Term, error) {
	p.next() //nolint:errcheck // opening quote
	var b strings.Builder
	for {
		r, err := p.next()
		if err != nil {
			return Term{}, p.errf("unexpected EOF inside literal")
		}
		if r == '\\' {
			r2, err := p.next()
			if err != nil {
				return Term{}, p.errf("unexpected EOF in escape")
			}
			b.WriteByte('\\')
			b.WriteRune(r2)
			continue
		}
		if r == '"' {
			break
		}
		b.WriteRune(r)
	}
	lex, err := unescapeLiteral(b.String())
	if err != nil {
		return Term{}, p.errf("%v", err)
	}
	r, perr := p.peek()
	if perr != nil {
		return NewLiteral(lex), nil
	}
	switch r {
	case '@':
		p.next() //nolint:errcheck
		var lb strings.Builder
		for {
			r, err := p.peek()
			if err != nil || !(unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-') {
				break
			}
			lb.WriteRune(r)
			p.next() //nolint:errcheck
		}
		if lb.Len() == 0 {
			return Term{}, p.errf("empty language tag")
		}
		return NewLangLiteral(lex, lb.String()), nil
	case '^':
		p.next() //nolint:errcheck
		r2, err := p.next()
		if err != nil || r2 != '^' {
			return Term{}, p.errf("expected '^^' before datatype")
		}
		p.skipWS()
		r3, err := p.peek()
		if err != nil {
			return Term{}, p.errf("unexpected EOF, expected datatype IRI")
		}
		var dt string
		if r3 == '<' {
			dt, err = p.parseIRIRef()
			if err != nil {
				return Term{}, err
			}
		} else {
			t, err := p.parsePrefixedName()
			if err != nil {
				return Term{}, err
			}
			dt = t.Value
		}
		return NewTypedLiteral(lex, dt), nil
	}
	return NewLiteral(lex), nil
}

// parseNumericShorthand parses bare Turtle numbers: integers, decimals, and
// doubles with exponents.
func (p *Parser) parseNumericShorthand() (Term, error) {
	var b strings.Builder
	sawDot, sawExp := false, false
	for {
		r, err := p.peek()
		if err != nil {
			break
		}
		switch {
		case unicode.IsDigit(r) || r == '+' || r == '-':
			b.WriteRune(r)
		case r == '.':
			// A '.' followed by a non-digit terminates the statement instead.
			p.next() //nolint:errcheck
			nr, err2 := p.peek()
			if err2 != nil || !unicode.IsDigit(nr) {
				// Push the dot back conceptually: treat as statement end by
				// un-consuming via the peeked slot.
				p.hasPeek = true
				if err2 == nil {
					// We consumed '.', and nr is still peeked; emulate a
					// stream that next yields '.' then nr is lost — instead
					// we handle it by returning with dotPending.
					return p.finishNumber(b.String(), true, nr)
				}
				return p.finishNumber(b.String(), true, 0)
			}
			sawDot = true
			b.WriteByte('.')
			b.WriteRune(nr)
			p.next() //nolint:errcheck
			continue
		case r == 'e' || r == 'E':
			sawExp = true
			b.WriteRune(r)
		default:
			return p.numberTerm(b.String(), sawDot, sawExp)
		}
		p.next() //nolint:errcheck
	}
	return p.numberTerm(b.String(), sawDot, sawExp)
}

// finishNumber handles the awkward `123.` case where the dot is the
// statement terminator: it re-injects the dot into the peek slot.
func (p *Parser) finishNumber(lex string, dotConsumed bool, after rune) (Term, error) {
	if dotConsumed {
		// Re-inject '.' so parseStatement sees the terminator. The rune that
		// followed (after) was never consumed if it is still in peeked.
		if p.hasPeek && p.peeked == after && after != 0 {
			// We have one peek slot; unread the after rune to the bufio
			// reader is impossible, so instead store '.' and push `after`
			// back via UnreadRune-equivalent: we re-buffer by prepending.
			p.peeked = '.'
			p.reinject(after)
		} else {
			p.peeked = '.'
			p.hasPeek = true
		}
	}
	return p.numberTerm(lex, false, false)
}

// reinject is a tiny helper pushing one rune back into the buffered reader
// by stacking it in front of future reads.
func (p *Parser) reinject(r rune) {
	// bufio.Reader has no multi-rune unread; wrap with a MultiReader-style
	// chain. This path is rare (only `123.` at statement end), so the
	// allocation is acceptable.
	p.r = bufio.NewReader(io.MultiReader(strings.NewReader(string(r)), p.r))
}

// numberTerm classifies a numeric lexical form.
func (p *Parser) numberTerm(lex string, sawDot, sawExp bool) (Term, error) {
	if lex == "" || lex == "+" || lex == "-" {
		return Term{}, p.errf("invalid number %q", lex)
	}
	switch {
	case sawExp:
		return NewTypedLiteral(lex, XSDDouble), nil
	case sawDot:
		return NewTypedLiteral(lex, XSDDecimal), nil
	default:
		return NewTypedLiteral(lex, XSDInteger), nil
	}
}

// tryBooleanShorthand consumes `true` or `false` when followed by a
// non-name character.
func (p *Parser) tryBooleanShorthand() (Term, bool, error) {
	word, err := p.peekWord()
	if err != nil {
		return Term{}, false, err
	}
	if word != "true" && word != "false" {
		return Term{}, false, nil
	}
	// Ensure not a prefixed name like true:something — check the byte after.
	skip := len(word)
	if p.hasPeek {
		skip--
	}
	buf, _ := p.r.Peek(skip + 1)
	if len(buf) > skip && (buf[skip] == ':' || isNameByte(buf[skip])) {
		return Term{}, false, nil
	}
	for i := 0; i < len(word); i++ {
		p.next() //nolint:errcheck
	}
	return NewBoolean(word == "true"), true, nil
}

// isNameByte reports whether b can continue a name (ASCII approximation).
func isNameByte(b byte) bool {
	return b == '_' || b == '-' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

// parsePrefixedName parses `pfx:local` using declared prefixes.
func (p *Parser) parsePrefixedName() (Term, error) {
	var pfx strings.Builder
	for {
		r, err := p.peek()
		if err != nil {
			return Term{}, p.errf("unexpected EOF in prefixed name")
		}
		if r == ':' {
			p.next() //nolint:errcheck
			break
		}
		if !isNameChar(r) {
			return Term{}, p.errf("unexpected character %q", r)
		}
		pfx.WriteRune(r)
		p.next() //nolint:errcheck
	}
	ns, ok := p.prefixes[pfx.String()]
	if !ok {
		return Term{}, p.errf("undeclared prefix %q", pfx.String())
	}
	var local strings.Builder
	for {
		r, err := p.peek()
		if err != nil {
			break
		}
		if r == '.' {
			// A dot ends the local name when followed by whitespace/EOF
			// (it is then the statement terminator).
			buf, _ := p.r.Peek(1)
			if len(buf) == 0 || isWSByte(buf[0]) {
				break
			}
		}
		if !isNameChar(r) {
			break
		}
		local.WriteRune(r)
		p.next() //nolint:errcheck
	}
	return NewIRI(ns + local.String()), nil
}

// ParseString parses all triples from a string.
func ParseString(s string) ([]Triple, error) {
	return NewParser(strings.NewReader(s)).ParseAll()
}
