package synth

import (
	"testing"

	"transit/internal/expr"
)

// parityProblems is a small spread of Table 3-style specs covering Int,
// Bool, and Set outputs.
func parityProblems(t *testing.T) []struct {
	name     string
	p        Problem
	examples []ConcolicExample
	limits   Limits
} {
	t.Helper()
	u, err := expr.NewUniverseWidth(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	voc := expr.CoherenceVocabulary(u, expr.CoherenceOptions{})
	a, b := expr.V("a", expr.IntType), expr.V("b", expr.IntType)
	oInt := expr.V("o", expr.IntType)
	oBool := expr.V("o", expr.BoolType)
	s1, s2 := expr.V("s1", expr.SetType), expr.V("s2", expr.SetType)
	oSet := expr.V("o", expr.SetType)

	return []struct {
		name     string
		p        Problem
		examples []ConcolicExample
		limits   Limits
	}{
		{
			name: "max2-guarded",
			p:    Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: oInt},
			examples: []ConcolicExample{
				{Pre: expr.Gt(a, b), Post: expr.Eq(oInt, a)},
				{Pre: expr.Gt(b, a), Post: expr.Eq(oInt, b)},
			},
			limits: Limits{MaxSize: 8},
		},
		{
			name: "ge-guard",
			p:    Problem{U: u, Vocab: voc, Vars: []*expr.Var{a, b}, Output: oBool},
			examples: []ConcolicExample{
				{Pre: expr.Ge(a, b), Post: expr.Eq(oBool, expr.True())},
				{Pre: expr.Gt(b, a), Post: expr.Eq(oBool, expr.False())},
			},
			limits: Limits{MaxSize: 6},
		},
		{
			name: "sym-diff",
			p:    Problem{U: u, Vocab: voc, Vars: []*expr.Var{s1, s2}, Output: oSet},
			examples: []ConcolicExample{
				{Pre: expr.True(), Post: expr.Eq(oSet,
					expr.SetUnion(expr.SetMinus(s1, s2), expr.SetMinus(s2, s1)))},
			},
			limits: Limits{MaxSize: 8},
		},
	}
}
