package engine

import (
	"encoding/json"
	"fmt"
	"time"

	"transit/internal/expr"
	"transit/internal/synth"
)

// This file is the memo cache's one entry form and its codec. An entry
// is held universe-free: the answer as a wire expression, every node
// written by name and signature; the solve's counters; and its CEGIS
// trace, which is already text (synth.IterRecord). The memory tier holds
// these entries as they are and the disk store holds them JSON-encoded, so
// both tiers answer a hit the same way: bind re-binds the expression
// into the requesting spec's world (functions by signature, variables by
// name and declared type, enum types and ordinals by name) and checks
// that the entry fits the hole. An entry written against one universe,
// or by another process, thus revives in this one; one that cannot be
// bound or does not fit (a key collision, vocabulary drift, damaged
// bytes) is a miss and the hole is re-solved. A stale entry must never
// poison a solve.

// wireVersion is bumped on any incompatible change to the wire structs;
// an entry of another version is a miss, and the hole is re-solved and
// re-written. v2 added the per-iteration CEGIS trace so disk hits replay
// provenance; v3 stopped counting a round whose bank was proven stale as
// a bank reuse; v4 stores the trace as the ledger's iteration records.
const wireVersion = 4

// wireValue is a typed constant on the wire.
type wireValue struct {
	Kind string `json:"k"`            // "bool", "int", "pid", "set", "enum"
	N    int64  `json:"n,omitempty"`  // bool (0/1), int, pid, enum ordinal
	Mask uint64 `json:"m,omitempty"`  // set payload
	Enum string `json:"e,omitempty"`  // enum type name
	Name string `json:"en,omitempty"` // enum value name (drift check)
}

// wireExpr is one expression node. Exactly one of Var, Const, Fn is
// populated; zero-arity applications (true, numcaches, enum constants)
// have Fn set and no Args.
type wireExpr struct {
	Var   string      `json:"var,omitempty"`
	VarT  string      `json:"vt,omitempty"` // declared type, for drift checks
	Const *wireValue  `json:"const,omitempty"`
	Fn    string      `json:"fn,omitempty"` // Func.String() signature
	Args  []*wireExpr `json:"args,omitempty"`
}

// wireStats mirrors the numeric fields of synth.Stats. Replaying them on
// a hit keeps aggregate reports identical whether or not the cache
// intervened.
type wireStats struct {
	Enumerated  int64 `json:"enumerated"`
	Kept        int64 `json:"kept"`
	MaxSizeSeen int   `json:"max_size_seen"`
	Restarts    int   `json:"restarts"`
	ConcreteNS  int64 `json:"concrete_ns"`
	BankReuses  int   `json:"bank_reuses"`
	SMTQueries  int   `json:"smt_queries"`
	SMTClauses  int64 `json:"smt_clauses"`
	Iterations  int   `json:"iterations"`
	ElapsedNS   int64 `json:"elapsed_ns"`
}

// wireEntry is one memo-cache entry, on either tier. Trace is shared with
// the solve that wrote it and with every hit, and is never written to.
type wireEntry struct {
	Version int                `json:"version"`
	Expr    *wireExpr          `json:"expr"`
	Stats   wireStats          `json:"stats"`
	Trace   []synth.IterRecord `json:"trace,omitempty"`
}

// toWire puts a solve's result in entry form.
func toWire(ent CacheEntry) (*wireEntry, error) {
	we, err := encodeExpr(ent.Expr)
	if err != nil {
		return nil, err
	}
	st := ent.Stats
	return &wireEntry{
		Version: wireVersion,
		Expr:    we,
		Trace:   st.Trace,
		Stats: wireStats{
			Enumerated:  st.Concrete.Enumerated,
			Kept:        st.Concrete.Kept,
			MaxSizeSeen: st.Concrete.MaxSizeSeen,
			Restarts:    st.Concrete.Restarts,
			ConcreteNS:  int64(st.Concrete.Elapsed),
			BankReuses:  st.BankReuses,
			SMTQueries:  st.SMTQueries,
			SMTClauses:  st.SMTClauses,
			Iterations:  st.Iterations,
			ElapsedNS:   int64(st.Elapsed),
		},
	}, nil
}

// EncodeEntry renders a cache entry in the persistent wire form.
func EncodeEntry(ent CacheEntry) ([]byte, error) {
	we, err := toWire(ent)
	if err != nil {
		return nil, err
	}
	return json.Marshal(we)
}

func encodeExpr(e expr.Expr) (*wireExpr, error) {
	switch n := e.(type) {
	case *expr.Var:
		return &wireExpr{Var: n.Name, VarT: n.VT.String()}, nil
	case *expr.Const:
		wv, err := encodeValue(n.Val)
		if err != nil {
			return nil, err
		}
		return &wireExpr{Const: wv}, nil
	case *expr.Apply:
		we := &wireExpr{Fn: n.Fn.String()}
		for _, a := range n.Args {
			wa, err := encodeExpr(a)
			if err != nil {
				return nil, err
			}
			we.Args = append(we.Args, wa)
		}
		return we, nil
	}
	return nil, fmt.Errorf("engine: cannot encode expression node %T", e)
}

func encodeValue(v expr.Value) (*wireValue, error) {
	switch v.Type().Kind {
	case expr.KindBool:
		n := int64(0)
		if v.Bool() {
			n = 1
		}
		return &wireValue{Kind: "bool", N: n}, nil
	case expr.KindInt:
		return &wireValue{Kind: "int", N: v.Int()}, nil
	case expr.KindPID:
		return &wireValue{Kind: "pid", N: int64(v.PID())}, nil
	case expr.KindSet:
		return &wireValue{Kind: "set", Mask: v.Set()}, nil
	case expr.KindEnum:
		et := v.Type().Enum
		ord := v.EnumOrd()
		return &wireValue{Kind: "enum", N: int64(ord), Enum: et.Name, Name: et.Values[ord]}, nil
	}
	return nil, fmt.Errorf("engine: cannot encode value of type %s", v.Type())
}

// parseEntry reads an entry from its persistent bytes: nil when they are
// malformed or of a foreign version.
func parseEntry(data []byte) *wireEntry {
	var we wireEntry
	if err := json.Unmarshal(data, &we); err != nil || we.Version != wireVersion || we.Expr == nil {
		return nil
	}
	return &we
}

// DecodeEntry parses a wire entry and binds it into spec's world, as a
// disk hit does. ok is false when the bytes are malformed, the version is
// foreign, or the entry does not fit the hole (see bind) — all treated as
// a cache miss by the caller.
func DecodeEntry(data []byte, spec SolveSpec) (CacheEntry, bool) {
	return parseEntry(data).bind(spec)
}

// bind answers spec's hole from the entry, on a hit on either tier. The
// answer is decoded into spec's world and must have the hole's output
// type; the trace must have the shape of the solve that wrote it (see
// traceFits). Anything else, a nil entry included, is a miss.
func (we *wireEntry) bind(spec SolveSpec) (ent CacheEntry, ok bool) {
	if we == nil {
		return CacheEntry{}, false
	}
	// NewApply type-checks with panics; a rebuild panic is a miss too: a
	// stale entry must never kill a worker.
	defer func() {
		if recover() != nil {
			ent, ok = CacheEntry{}, false
		}
	}()
	p := &spec.Problem
	e, ok := decode(p, we.Expr)
	if !ok || e.Type() != p.Output.VT || !traceFits(we.Trace, we.Stats.Iterations, len(spec.Examples)) {
		return CacheEntry{}, false
	}
	st := we.Stats
	return CacheEntry{
		Expr: e,
		Stats: synth.Stats{
			Trace: we.Trace,
			Concrete: synth.ConcreteStats{
				Enumerated:  st.Enumerated,
				Kept:        st.Kept,
				MaxSizeSeen: st.MaxSizeSeen,
				Restarts:    st.Restarts,
				Elapsed:     time.Duration(st.ConcreteNS),
			},
			BankReuses: st.BankReuses,
			SMTQueries: st.SMTQueries,
			SMTClauses: st.SMTClauses,
			Iterations: st.Iterations,
			Elapsed:    time.Duration(st.ElapsedNS),
		},
	}, true
}

// traceFits reports whether trace has the shape of a successful solve of
// the given number of rounds over the given number of concolic examples:
// rounds numbered 1..rounds, every round but the last refuted by one of
// the examples, and the last accepted.
func traceFits(trace []synth.IterRecord, rounds, examples int) bool {
	if len(trace) != rounds {
		return false
	}
	for i, it := range trace {
		fits := it.Accepted && it.KilledBy == -1
		if i < len(trace)-1 {
			fits = !it.Accepted && it.KilledBy >= 0 && it.KilledBy < examples
		}
		if it.Round != i+1 || !fits {
			return false
		}
	}
	return true
}

// decode binds one wire node into p's world. Variables bind to p's
// inputs only: an answer naming the hole's own output is not an answer.
func decode(p *synth.Problem, we *wireExpr) (expr.Expr, bool) {
	switch {
	case we.Var != "":
		for _, v := range p.Vars {
			if v.Name == we.Var {
				return v, v.VT.String() == we.VarT
			}
		}
		return nil, false
	case we.Const != nil:
		v, ok := decodeVal(p.U, we.Const)
		if !ok {
			return nil, false
		}
		return expr.NewConst(v), true
	case we.Fn != "":
		fn, ok := p.Vocab.BySig(we.Fn)
		if !ok {
			return nil, false
		}
		args := make([]expr.Expr, len(we.Args))
		for i, wa := range we.Args {
			a, ok := decode(p, wa)
			if !ok {
				return nil, false
			}
			args[i] = a
		}
		return expr.NewApply(fn, args...), true
	}
	return nil, false
}

// decodeVal binds one wire value into universe u.
func decodeVal(u *expr.Universe, wv *wireValue) (expr.Value, bool) {
	switch wv.Kind {
	case "bool":
		return expr.BoolVal(wv.N != 0), true
	case "int":
		// The key pins the integer width, so the stored payload is already
		// in this universe's wrapped range; WrapInt is then the identity.
		return expr.IntVal(u, wv.N), true
	case "pid":
		if wv.N < 0 || wv.N >= int64(u.NumCaches()) {
			return expr.Value{}, false
		}
		return expr.PIDVal(int(wv.N)), true
	case "set":
		if wv.Mask&^u.SetMask() != 0 {
			return expr.Value{}, false
		}
		return expr.SetVal(wv.Mask), true
	case "enum":
		et, ok := u.Enum(wv.Enum)
		if !ok {
			return expr.Value{}, false
		}
		ord := int(wv.N)
		if ord < 0 || ord >= len(et.Values) || et.Values[ord] != wv.Name {
			return expr.Value{}, false
		}
		return expr.EnumVal(et, ord), true
	}
	return expr.Value{}, false
}
