package algebra

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"sofos/internal/rdf"
	"sofos/internal/sparql"
)

// Resolver maps a variable name to its current value in a binding row.
type Resolver func(name string) Value

// Eval evaluates a FILTER/HAVING expression under the given variable
// resolver. It returns the resulting term; type errors are reported with
// IsTypeError-recognizable errors, which FILTER evaluation converts to false.
func Eval(e sparql.Expr, resolve Resolver) (rdf.Term, error) {
	switch x := e.(type) {
	case *sparql.VarExpr:
		v := resolve(x.Name)
		if !v.Bound {
			return rdf.Term{}, TypeErrorf("unbound variable ?%s", x.Name)
		}
		return v.Term, nil
	case *sparql.TermExpr:
		return x.Term, nil
	case *sparql.UnaryExpr:
		return evalUnary(x, resolve)
	case *sparql.BinaryExpr:
		return evalBinary(x, resolve)
	case *sparql.CallExpr:
		return evalCall(x, resolve)
	default:
		return rdf.Term{}, fmt.Errorf("algebra: unknown expression node %T", e)
	}
}

// EvalBool evaluates an expression as a FILTER constraint: the effective
// boolean value of the result, with type errors mapped to false per SPARQL.
func EvalBool(e sparql.Expr, resolve Resolver) bool {
	t, err := Eval(e, resolve)
	if err != nil {
		return false
	}
	b, err := EffectiveBool(t)
	if err != nil {
		return false
	}
	return b
}

func evalUnary(x *sparql.UnaryExpr, resolve Resolver) (rdf.Term, error) {
	switch x.Op {
	case '!':
		t, err := Eval(x.Expr, resolve)
		if err != nil {
			if IsTypeError(err) {
				return rdf.Term{}, err
			}
			return rdf.Term{}, err
		}
		b, err := EffectiveBool(t)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(!b), nil
	case '-':
		t, err := Eval(x.Expr, resolve)
		if err != nil {
			return rdf.Term{}, err
		}
		f, ok := NumericValue(t)
		if !ok {
			return rdf.Term{}, TypeErrorf("unary minus on non-numeric %s", t)
		}
		return numericResult(-f, t.Datatype, t.Datatype), nil
	default:
		return rdf.Term{}, fmt.Errorf("algebra: unknown unary operator %q", x.Op)
	}
}

func evalBinary(x *sparql.BinaryExpr, resolve Resolver) (rdf.Term, error) {
	switch x.Op {
	case sparql.OpAnd, sparql.OpOr:
		return evalLogical(x, resolve)
	}
	left, err := Eval(x.Left, resolve)
	if err != nil {
		return rdf.Term{}, err
	}
	right, err := Eval(x.Right, resolve)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Op {
	case sparql.OpEq:
		eq, err := Equal(left, right)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(eq), nil
	case sparql.OpNeq:
		eq, err := Equal(left, right)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(!eq), nil
	case sparql.OpLt, sparql.OpLe, sparql.OpGt, sparql.OpGe:
		c, err := Compare(left, right)
		if err != nil {
			return rdf.Term{}, err
		}
		var b bool
		switch x.Op {
		case sparql.OpLt:
			b = c < 0
		case sparql.OpLe:
			b = c <= 0
		case sparql.OpGt:
			b = c > 0
		default:
			b = c >= 0
		}
		return rdf.NewBoolean(b), nil
	case sparql.OpAdd, sparql.OpSub, sparql.OpMul, sparql.OpDiv:
		fl, ok := NumericValue(left)
		if !ok {
			return rdf.Term{}, TypeErrorf("arithmetic on non-numeric %s", left)
		}
		fr, ok := NumericValue(right)
		if !ok {
			return rdf.Term{}, TypeErrorf("arithmetic on non-numeric %s", right)
		}
		var f float64
		switch x.Op {
		case sparql.OpAdd:
			f = fl + fr
		case sparql.OpSub:
			f = fl - fr
		case sparql.OpMul:
			f = fl * fr
		default:
			if fr == 0 {
				return rdf.Term{}, TypeErrorf("division by zero")
			}
			f = fl / fr
		}
		return numericResult(f, left.Datatype, right.Datatype), nil
	default:
		return rdf.Term{}, fmt.Errorf("algebra: unknown binary operator %v", x.Op)
	}
}

// evalLogical implements SPARQL three-valued && and ||: a type error on one
// side can still produce a definite result from the other side.
func evalLogical(x *sparql.BinaryExpr, resolve Resolver) (rdf.Term, error) {
	lt, lerr := Eval(x.Left, resolve)
	var lb bool
	if lerr == nil {
		lb, lerr = EffectiveBool(lt)
	}
	rt, rerr := Eval(x.Right, resolve)
	var rb bool
	if rerr == nil {
		rb, rerr = EffectiveBool(rt)
	}
	if x.Op == sparql.OpAnd {
		switch {
		case lerr == nil && rerr == nil:
			return rdf.NewBoolean(lb && rb), nil
		case lerr == nil && !lb:
			return rdf.NewBoolean(false), nil
		case rerr == nil && !rb:
			return rdf.NewBoolean(false), nil
		default:
			return rdf.Term{}, firstErr(lerr, rerr)
		}
	}
	switch {
	case lerr == nil && rerr == nil:
		return rdf.NewBoolean(lb || rb), nil
	case lerr == nil && lb:
		return rdf.NewBoolean(true), nil
	case rerr == nil && rb:
		return rdf.NewBoolean(true), nil
	default:
		return rdf.Term{}, firstErr(lerr, rerr)
	}
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// numericResult picks the wider of the operand datatypes for the result.
func numericResult(f float64, dt1, dt2 string) rdf.Term {
	wide := func(dt string) int {
		switch dt {
		case rdf.XSDDouble:
			return 3
		case rdf.XSDDecimal:
			return 2
		default:
			return 1
		}
	}
	dt := dt1
	if wide(dt2) > wide(dt1) {
		dt = dt2
	}
	switch dt {
	case rdf.XSDDouble:
		return rdf.NewDouble(f)
	case rdf.XSDDecimal:
		return rdf.NewDecimal(f)
	default:
		if f == float64(int64(f)) {
			return rdf.NewInteger(int64(f))
		}
		return rdf.NewDecimal(f)
	}
}

// regexCache caches compiled filter regexes across rows; REGEX patterns come
// from query text, so the cache stays tiny.
var regexCache sync.Map // string -> *regexp.Regexp

func compileRegex(pattern, flags string) (*regexp.Regexp, error) {
	key := flags + "\x00" + pattern
	if re, ok := regexCache.Load(key); ok {
		return re.(*regexp.Regexp), nil
	}
	p := pattern
	if strings.Contains(flags, "i") {
		p = "(?i)" + p
	}
	re, err := regexp.Compile(p)
	if err != nil {
		return nil, TypeErrorf("invalid REGEX pattern %q: %v", pattern, err)
	}
	regexCache.Store(key, re)
	return re, nil
}

func evalCall(x *sparql.CallExpr, resolve Resolver) (rdf.Term, error) {
	// BOUND inspects bindings without evaluating, so handle it first.
	if x.Func == "BOUND" {
		v, ok := x.Args[0].(*sparql.VarExpr)
		if !ok {
			return rdf.Term{}, TypeErrorf("BOUND requires a variable argument")
		}
		return rdf.NewBoolean(resolve(v.Name).Bound), nil
	}
	args := make([]rdf.Term, len(x.Args))
	for i, a := range x.Args {
		t, err := Eval(a, resolve)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = t
	}
	switch x.Func {
	case "STR":
		return rdf.NewLiteral(args[0].Value), nil
	case "LANG":
		if args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, TypeErrorf("LANG of non-literal %s", args[0])
		}
		return rdf.NewLiteral(args[0].Lang), nil
	case "DATATYPE":
		if args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, TypeErrorf("DATATYPE of non-literal %s", args[0])
		}
		return rdf.NewIRI(args[0].EffectiveDatatype()), nil
	case "ABS":
		f, ok := NumericValue(args[0])
		if !ok {
			return rdf.Term{}, TypeErrorf("ABS of non-numeric %s", args[0])
		}
		if f < 0 {
			f = -f
		}
		return numericResult(f, args[0].Datatype, args[0].Datatype), nil
	case "ISIRI":
		return rdf.NewBoolean(args[0].Kind == rdf.KindIRI), nil
	case "ISBLANK":
		return rdf.NewBoolean(args[0].Kind == rdf.KindBlank), nil
	case "ISLITERAL":
		return rdf.NewBoolean(args[0].Kind == rdf.KindLiteral), nil
	case "ISNUMERIC":
		return rdf.NewBoolean(args[0].IsNumeric()), nil
	case "REGEX":
		if args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, TypeErrorf("REGEX of non-literal %s", args[0])
		}
		flags := ""
		if len(args) == 3 {
			flags = args[2].Value
		}
		re, err := compileRegex(args[1].Value, flags)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(re.MatchString(args[0].Value)), nil
	default:
		return rdf.Term{}, fmt.Errorf("algebra: unknown function %s", x.Func)
	}
}

// FormatFloat renders an aggregate result as the canonical literal for the
// aggregate's output type.
func FormatFloat(f float64) rdf.Term {
	var buf [32]byte
	lex, datatype := AppendFloat(buf[:0], f)
	return rdf.Term{Kind: rdf.KindLiteral, Value: string(lex), Datatype: datatype}
}

// AppendFloat appends the lexical form of FormatFloat(f) to dst and returns
// it with the literal's datatype: xsd:integer when f is integral and fits
// an int64, else xsd:decimal.
func AppendFloat(dst []byte, f float64) ([]byte, string) {
	if f == float64(int64(f)) {
		return strconv.AppendInt(dst, int64(f), 10), rdf.XSDInteger
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64), rdf.XSDDecimal
}

// ParseNumeric parses a term required to be numeric, as aggregation input.
func ParseNumeric(t rdf.Term) (float64, error) {
	if f, ok := NumericValue(t); ok {
		return f, nil
	}
	return 0, TypeErrorf("aggregation over non-numeric %s", t)
}
