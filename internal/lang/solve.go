package lang

import (
	"fmt"

	"transit/internal/expr"
	"transit/internal/synth"
)

// SolveDecl declares one expression-inference problem by name: the job
// server's solve request (as JSON) and transit-infer's statement file
// both decode into it, and Elab is the one elaborator behind both. The
// Max fields are the request's search limits, read by the server.
type SolveDecl struct {
	NumCaches int            `json:"num_caches"`
	IntWidth  uint           `json:"int_width,omitempty"` // 0 = expr.DefaultIntWidth
	Enums     []SolveEnum    `json:"enums,omitempty"`
	Vocab     SolveVocab     `json:"vocab"`
	Vars      []SolveVar     `json:"vars"`
	Output    SolveVar       `json:"output"`
	Examples  []SolveExample `json:"examples"`

	MaxSize  int   `json:"max_size,omitempty"`
	MaxIters int   `json:"max_iters,omitempty"`
	MaxExprs int64 `json:"max_exprs,omitempty"`
}

// SolveEnum declares one enumerated type.
type SolveEnum struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// SolveVar declares one typed variable. Type is Bool, Int, PID, Set, or
// a declared enum name.
type SolveVar struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// SolveVocab selects the coherence-vocabulary variant the solver
// searches.
type SolveVocab struct {
	EnumConstants  bool `json:"enum_constants,omitempty"`
	PIDConstants   bool `json:"pid_constants,omitempty"`
	SetLiterals    bool `json:"set_literals,omitempty"`
	WithoutEnumIte bool `json:"without_enum_ite,omitempty"`
}

// SolveExample is one concolic example: Pre (true when empty) and Post
// in TRANSIT surface syntax over the variables and the output.
type SolveExample struct {
	Pre  string `json:"pre"`
	Post string `json:"post"`
}

// Elab elaborates the declaration into the solver's problem and
// examples: a universe of NumCaches caches, the declared enums, the
// vocabulary Vocab selects, the typed input variables (no duplicates)
// and the output, which must not shadow an input. Every example's pre
// and post must elaborate to Bool.
func (d *SolveDecl) Elab() (synth.Problem, []synth.ConcolicExample, error) {
	var zp synth.Problem
	if d.NumCaches <= 0 {
		return zp, nil, fmt.Errorf("num_caches must be positive")
	}
	width := d.IntWidth
	if width == 0 {
		width = expr.DefaultIntWidth
	}
	u, err := expr.NewUniverseWidth(d.NumCaches, width)
	if err != nil {
		return zp, nil, err
	}
	// b elaborates the examples: a builder of no file that knows the
	// declared enums' literals.
	b := &builder{u: u, literals: map[string][]*expr.EnumType{}}
	enums := make([]*expr.EnumType, 0, len(d.Enums))
	for _, e := range d.Enums {
		et, err := u.DeclareEnum(e.Name, e.Values...)
		if err != nil {
			return zp, nil, err
		}
		enums = append(enums, et)
		for _, v := range et.Values {
			b.literals[v] = append(b.literals[v], et)
		}
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{
		Enums:             enums,
		WithEnumConstants: d.Vocab.EnumConstants,
		WithPIDConstants:  d.Vocab.PIDConstants,
		WithSetLiterals:   d.Vocab.SetLiterals,
		WithoutEnumIte:    d.Vocab.WithoutEnumIte,
	})

	if d.Output.Name == "" {
		return zp, nil, fmt.Errorf("output variable is required")
	}
	sc := &scope{vars: map[string]expr.Type{}}
	vars := make([]*expr.Var, 0, len(d.Vars))
	for _, v := range d.Vars {
		t, err := TypeByName(u, v.Type)
		if err != nil {
			return zp, nil, fmt.Errorf("var %s: %w", v.Name, err)
		}
		if _, dup := sc.vars[v.Name]; dup {
			return zp, nil, fmt.Errorf("duplicate variable %q", v.Name)
		}
		vars = append(vars, expr.V(v.Name, t))
		sc.vars[v.Name] = t
	}
	ot, err := TypeByName(u, d.Output.Type)
	if err != nil {
		return zp, nil, fmt.Errorf("output %s: %w", d.Output.Name, err)
	}
	if _, dup := sc.vars[d.Output.Name]; dup {
		return zp, nil, fmt.Errorf("output %q shadows an input variable", d.Output.Name)
	}
	out := expr.V(d.Output.Name, ot)
	sc.vars[d.Output.Name] = ot

	if len(d.Examples) == 0 {
		return zp, nil, fmt.Errorf("at least one example is required")
	}
	examples := make([]synth.ConcolicExample, 0, len(d.Examples))
	for i, ex := range d.Examples {
		pre := expr.True()
		if ex.Pre != "" {
			if pre, err = b.parseExpr(ex.Pre, sc); err != nil {
				return zp, nil, fmt.Errorf("example %d pre: %w", i, err)
			}
		}
		post, err := b.parseExpr(ex.Post, sc)
		if err != nil {
			return zp, nil, fmt.Errorf("example %d post: %w", i, err)
		}
		if pre.Type() != expr.BoolType || post.Type() != expr.BoolType {
			return zp, nil, fmt.Errorf("example %d: pre and post must be Bool", i)
		}
		examples = append(examples, synth.ConcolicExample{Pre: pre, Post: post})
	}
	return synth.Problem{U: u, Vocab: voc, Vars: vars, Output: out}, examples, nil
}

// parseExpr parses src as one expression in TRANSIT surface syntax and
// elaborates it in sc, where no primed target is allowed.
func (b *builder) parseExpr(src string, sc *scope) (expr.Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	node, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, errf(p.cur().pos, "trailing input after expression")
	}
	return b.elab(node, sc, false)
}
