package expr

import "fmt"

// Env is a valuation of variables by name. It is the S of the paper's
// concrete examples (S, k_o) and the model returned by the SMT solver.
type Env map[string]Value

// Clone returns a copy of the environment.
func (e Env) Clone() Env {
	out := make(Env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Expr is a typed expression over a vocabulary's function symbols and a set
// of typed variables, per §4.1 of the paper. Expressions are immutable.
type Expr interface {
	// Type reports the expression's type.
	Type() Type
	// Size is the number of function and variable symbols in the
	// expression (the paper's size(e) metric).
	Size() int
	// Eval evaluates the expression under an environment. Unbound
	// variables panic: the synthesizer and runtime always evaluate under
	// complete environments, so a miss is a wiring bug.
	Eval(u *Universe, env Env) Value
	// String renders the expression in prefix form, e.g. ite(gt(a,b),a,b).
	String() string
}

// Var is a variable reference.
type Var struct {
	Name string
	VT   Type
}

// NewVar constructs a variable of the given type.
func NewVar(name string, t Type) *Var { return &Var{Name: name, VT: t} }

// Type implements Expr.
func (v *Var) Type() Type { return v.VT }

// Size implements Expr.
func (v *Var) Size() int { return 1 }

// Eval implements Expr.
func (v *Var) Eval(_ *Universe, env Env) Value {
	val, ok := env[v.Name]
	if !ok {
		panic(fmt.Sprintf("expr: unbound variable %s", v.Name))
	}
	if val.Type() != v.VT {
		panic(fmt.Sprintf("expr: variable %s bound to %s, declared %s", v.Name, val.Type(), v.VT))
	}
	return val
}

// String implements Expr.
func (v *Var) String() string { return v.Name }

// Const is a literal value. Constants may appear in examples and snippets
// even when they are not part of the enumeration vocabulary (e.g. concrete
// PIDs like C1 in a concrete snippet).
type Const struct {
	Val Value
}

// NewConst wraps a value as an expression.
func NewConst(v Value) *Const { return &Const{Val: v} }

// Type implements Expr.
func (c *Const) Type() Type { return c.Val.Type() }

// Size implements Expr.
func (c *Const) Size() int { return 1 }

// Eval implements Expr.
func (c *Const) Eval(_ *Universe, _ Env) Value { return c.Val }

// String implements Expr.
func (c *Const) String() string { return c.Val.String() }

// Apply is the application of a vocabulary function to argument
// expressions.
type Apply struct {
	Fn   *Func
	Args []Expr
	size int
}

// NewApply builds a function application, validating arity and argument
// types.
func NewApply(fn *Func, args ...Expr) *Apply {
	if len(args) != len(fn.Params) {
		panic(fmt.Sprintf("expr: %s expects %d args, got %d", fn.Name, len(fn.Params), len(args)))
	}
	size := 1
	for i, a := range args {
		if a.Type() != fn.Params[i] {
			panic(fmt.Sprintf("expr: %s arg %d: want %s, got %s", fn.Name, i, fn.Params[i], a.Type()))
		}
		size += a.Size()
	}
	return &Apply{Fn: fn, Args: args, size: size}
}

// Type implements Expr.
func (a *Apply) Type() Type { return a.Fn.Ret }

// Size implements Expr.
func (a *Apply) Size() int { return a.size }

// Eval implements Expr.
func (a *Apply) Eval(u *Universe, env Env) Value {
	vals := make([]Value, len(a.Args))
	for i, arg := range a.Args {
		vals[i] = arg.Eval(u, env)
	}
	return a.Fn.Apply(u, vals)
}

// String implements Expr.
func (a *Apply) String() string { return string(AppendString(nil, a)) }

// AppendString appends e's String form to dst: a variable's name, a
// constant's Value.String, and an application as its function's name
// followed by its arguments, comma-separated, in parentheses. It is the
// one renderer of that form; the memo cache builds its keys with it
// without a string per node.
func AppendString(dst []byte, e Expr) []byte {
	switch n := e.(type) {
	case *Var:
		return append(dst, n.Name...)
	case *Const:
		return n.Val.AppendString(dst)
	case *Apply:
		dst = append(append(dst, n.Fn.Name...), '(')
		for i, arg := range n.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendString(dst, arg)
		}
		return append(dst, ')')
	}
	return append(dst, e.String()...)
}

// Vars returns the distinct variable names free in e, in first-occurrence
// order.
func Vars(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *Var:
			if !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n.Name)
			}
		case *Apply:
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// Subst returns e with every occurrence of variable name replaced by
// replacement; it is the paper's C[o := e] substitution. Subtrees without
// the variable are shared, not copied.
func Subst(e Expr, name string, replacement Expr) Expr {
	switch n := e.(type) {
	case *Var:
		if n.Name == name {
			if replacement.Type() != n.VT {
				panic(fmt.Sprintf("expr: substituting %s (%s) with %s expression",
					name, n.VT, replacement.Type()))
			}
			return replacement
		}
		return n
	case *Const:
		return n
	case *Apply:
		changed := false
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Subst(a, name, replacement)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			return n
		}
		return NewApply(n.Fn, args...)
	}
	panic("expr: Subst on unknown node")
}

// Equal reports structural equality of two expressions.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *Var:
		y, ok := b.(*Var)
		return ok && x.Name == y.Name && x.VT == y.VT
	case *Const:
		y, ok := b.(*Const)
		return ok && x.Val == y.Val
	case *Apply:
		y, ok := b.(*Apply)
		if !ok || x.Fn != y.Fn || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}
