package sparql

import (
	"fmt"
	"strings"

	"sofos/internal/rdf"
)

// Expr is a FILTER/HAVING expression node. Expressions are immutable after
// construction and safe to share between queries.
type Expr interface {
	fmt.Stringer
	// Vars appends the variables referenced by the expression to dst.
	Vars(dst []string) []string
	exprNode()
}

// VarExpr references a variable.
type VarExpr struct{ Name string }

func (e *VarExpr) String() string             { return "?" + e.Name }
func (e *VarExpr) Vars(dst []string) []string { return append(dst, e.Name) }
func (e *VarExpr) exprNode()                  {}

// TermExpr is a constant RDF term.
type TermExpr struct{ Term rdf.Term }

func (e *TermExpr) String() string             { return e.Term.String() }
func (e *TermExpr) Vars(dst []string) []string { return dst }
func (e *TermExpr) exprNode()                  {}

// BinaryOp enumerates binary operators in precedence groups.
type BinaryOp int

// Binary operators.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String returns the operator spelling.
func (op BinaryOp) String() string {
	switch op {
	case OpOr:
		return "||"
	case OpAnd:
		return "&&"
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return fmt.Sprintf("BinaryOp(%d)", int(op))
	}
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op          BinaryOp
	Left, Right Expr
}

func (e *BinaryExpr) String() string {
	return "(" + e.Left.String() + " " + e.Op.String() + " " + e.Right.String() + ")"
}

func (e *BinaryExpr) Vars(dst []string) []string {
	return e.Right.Vars(e.Left.Vars(dst))
}
func (e *BinaryExpr) exprNode() {}

// UnaryExpr applies logical negation or arithmetic minus.
type UnaryExpr struct {
	Op   rune // '!' or '-'
	Expr Expr
}

func (e *UnaryExpr) String() string             { return string(e.Op) + e.Expr.String() }
func (e *UnaryExpr) Vars(dst []string) []string { return e.Expr.Vars(dst) }
func (e *UnaryExpr) exprNode()                  {}

// CallExpr invokes a builtin function: REGEX, STR, LANG, DATATYPE, BOUND,
// ABS, ISIRI, ISBLANK, ISLITERAL, ISNUMERIC.
type CallExpr struct {
	Func string // uppercase
	Args []Expr
}

func (e *CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Func + "(" + strings.Join(parts, ", ") + ")"
}

func (e *CallExpr) Vars(dst []string) []string {
	for _, a := range e.Args {
		dst = a.Vars(dst)
	}
	return dst
}
func (e *CallExpr) exprNode() {}

// ExprVars returns the distinct variables referenced by the expression.
func ExprVars(e Expr) []string {
	raw := e.Vars(nil)
	seen := map[string]bool{}
	var out []string
	for _, v := range raw {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Eq builds an equality comparison between a variable and a constant term —
// the common FILTER shape produced by the workload generator.
func Eq(varName string, t rdf.Term) Expr {
	return &BinaryExpr{Op: OpEq, Left: &VarExpr{Name: varName}, Right: &TermExpr{Term: t}}
}
