package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"transit/internal/expr"
	"transit/internal/synth"
)

// This file is the cache's wire codec: the translation between in-memory
// CacheEntry values (whose expressions carry pointer identities — enum
// types, vocabulary *Funcs, typed variables) and a self-describing JSON
// form a CacheBackend can persist. Encoding needs no context: every node
// is written by name and signature. Decoding is rehydration in disguise —
// symbols are re-bound into the *requesting* spec's world (functions by
// signature, variables by name, enum types and ordinals by name), exactly
// as the cross-universe rehydrator does for in-memory hits, so an entry
// written by one process revives correctly in another. A decode that
// cannot bind (key collision, vocabulary drift) reports failure and the
// caller treats the lookup as a miss; a stale disk entry must never
// poison a solve.

// wireVersion is bumped on any incompatible change to the wire structs;
// decoders reject other versions (the entry is then a cache miss and the
// sub-problem is re-solved and re-written). v2 added the per-iteration
// CEGIS trace so disk hits replay provenance; v3 stopped counting a
// round whose bank was proven stale as a bank reuse, so older entries'
// BankReuses and Resumed no longer match a fresh solve.
const wireVersion = 3

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

// wireBinding is one name→value pair of a witness valuation, stored as a
// sorted slice so the encoded bytes are deterministic.
type wireBinding struct {
	Name string     `json:"n"`
	Val  *wireValue `json:"v"`
}

// wireIter is one CEGIS round of the trace. The witness valuation is
// stored once: the round's NewExample shares it (ex.S == rec.Witness by
// construction in cegisIteration), so decode re-establishes the sharing.
type wireIter struct {
	Candidate  *wireExpr     `json:"c"`
	Witness    []wireBinding `json:"w,omitempty"`
	Out        *wireValue    `json:"o,omitempty"` // concretized output; nil when accepted
	KilledBy   int           `json:"kb"`
	Enumerated int64         `json:"en"`
	Kept       int64         `json:"kp"`
	Resumed    bool          `json:"r,omitempty"`
	Restarted  bool          `json:"rs,omitempty"`
}

// wireStats mirrors the numeric fields of synth.Stats plus, since wire
// v2, the per-iteration Trace: the provenance ledger replays it on warm
// answers so a memo hit stays as explainable as a fresh solve. Counter
// replay — the property that keeps aggregate reports identical whether
// or not the cache intervened — is unchanged.
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

// wireEntry is one persisted cache entry.
type wireEntry struct {
	Version int        `json:"version"`
	Expr    *wireExpr  `json:"expr"`
	Stats   wireStats  `json:"stats"`
	Trace   []wireIter `json:"trace,omitempty"`
}

// EncodeEntry renders a cache entry in the persistent wire form.
func EncodeEntry(ent CacheEntry) ([]byte, error) {
	we, err := encodeExpr(ent.Expr)
	if err != nil {
		return nil, err
	}
	st := ent.Stats
	trace, err := encodeTrace(st.Trace)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireEntry{
		Version: wireVersion,
		Expr:    we,
		Trace:   trace,
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
	})
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

// encodeTrace renders the per-iteration CEGIS trace; witness valuations
// are flattened to name-sorted binding lists for byte determinism.
func encodeTrace(trace []synth.IterRecord) ([]wireIter, error) {
	if len(trace) == 0 {
		return nil, nil
	}
	out := make([]wireIter, 0, len(trace))
	for _, rec := range trace {
		wc, err := encodeExpr(rec.Candidate)
		if err != nil {
			return nil, err
		}
		wi := wireIter{
			Candidate:  wc,
			KilledBy:   rec.KilledBy,
			Enumerated: rec.Enumerated,
			Kept:       rec.Kept,
			Resumed:    rec.Resumed,
			Restarted:  rec.Restarted,
		}
		if rec.Witness != nil {
			names := make([]string, 0, len(rec.Witness))
			for name := range rec.Witness {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				wv, err := encodeValue(rec.Witness[name])
				if err != nil {
					return nil, err
				}
				wi.Witness = append(wi.Witness, wireBinding{Name: name, Val: wv})
			}
		}
		if rec.NewExample != nil {
			wv, err := encodeValue(rec.NewExample.Out)
			if err != nil {
				return nil, err
			}
			wi.Out = wv
		}
		out = append(out, wi)
	}
	return out, nil
}

// DecodeEntry parses a wire entry and binds its expression into spec's
// world. ok is false when the bytes are malformed, the version is foreign,
// or some symbol has no counterpart in the spec — all treated as a cache
// miss by the caller.
func DecodeEntry(data []byte, spec SolveSpec) (ent CacheEntry, ok bool) {
	var we wireEntry
	if err := json.Unmarshal(data, &we); err != nil || we.Version != wireVersion || we.Expr == nil {
		return CacheEntry{}, false
	}
	// NewApply type-checks with panics; demote any rebuild panic to a miss
	// like the in-memory rehydrator does.
	defer func() {
		if recover() != nil {
			ent, ok = CacheEntry{}, false
		}
	}()
	r := newRehydrator(spec)
	e, ok := r.decode(we.Expr)
	if !ok {
		return CacheEntry{}, false
	}
	trace, ok := r.decodeTrace(we.Trace)
	if !ok {
		return CacheEntry{}, false
	}
	return CacheEntry{
		Expr: e,
		Stats: synth.Stats{
			Trace: trace,
			Concrete: synth.ConcreteStats{
				Enumerated:  we.Stats.Enumerated,
				Kept:        we.Stats.Kept,
				MaxSizeSeen: we.Stats.MaxSizeSeen,
				Restarts:    we.Stats.Restarts,
				Elapsed:     time.Duration(we.Stats.ConcreteNS),
			},
			BankReuses: we.Stats.BankReuses,
			SMTQueries: we.Stats.SMTQueries,
			SMTClauses: we.Stats.SMTClauses,
			Iterations: we.Stats.Iterations,
			Elapsed:    time.Duration(we.Stats.ElapsedNS),
		},
	}, true
}

// decode binds one wire node into the rehydrator's world.
func (r *rehydrator) decode(we *wireExpr) (expr.Expr, bool) {
	switch {
	case we.Var != "":
		tv, ok := r.vars[we.Var]
		if !ok || tv.VT.String() != we.VarT {
			return nil, false
		}
		return tv, true
	case we.Const != nil:
		return r.decodeValue(we.Const)
	case we.Fn != "":
		fn, ok := r.vocab.BySig(we.Fn)
		if !ok {
			return nil, false
		}
		args := make([]expr.Expr, len(we.Args))
		for i, wa := range we.Args {
			a, ok := r.decode(wa)
			if !ok {
				return nil, false
			}
			args[i] = a
		}
		return expr.NewApply(fn, args...), true
	}
	return nil, false
}

func (r *rehydrator) decodeValue(wv *wireValue) (expr.Expr, bool) {
	v, ok := r.decodeVal(wv)
	if !ok {
		return nil, false
	}
	return expr.NewConst(v), true
}

// decodeVal binds one wire value into the rehydrator's universe.
func (r *rehydrator) decodeVal(wv *wireValue) (expr.Value, bool) {
	switch wv.Kind {
	case "bool":
		return expr.BoolVal(wv.N != 0), true
	case "int":
		// The key pins the integer width, so the stored payload is already
		// in this universe's wrapped range; WrapInt is then the identity.
		return expr.IntVal(r.u, wv.N), true
	case "pid":
		if wv.N < 0 || wv.N >= int64(r.u.NumCaches()) {
			return expr.Value{}, false
		}
		return expr.PIDVal(int(wv.N)), true
	case "set":
		if wv.Mask&^r.u.SetMask() != 0 {
			return expr.Value{}, false
		}
		return expr.SetVal(wv.Mask), true
	case "enum":
		et, ok := r.u.Enum(wv.Enum)
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

// decodeTrace rebinds a persisted CEGIS trace into spec's world. Any
// unbindable symbol fails the whole decode (the caller then treats the
// entry as a miss), keeping the all-or-nothing contract of DecodeEntry.
func (r *rehydrator) decodeTrace(wis []wireIter) ([]synth.IterRecord, bool) {
	if len(wis) == 0 {
		return nil, true
	}
	out := make([]synth.IterRecord, 0, len(wis))
	for _, wi := range wis {
		cand, ok := r.decode(wi.Candidate)
		if !ok {
			return nil, false
		}
		rec := synth.IterRecord{
			Candidate:  cand,
			KilledBy:   wi.KilledBy,
			Enumerated: wi.Enumerated,
			Kept:       wi.Kept,
			Resumed:    wi.Resumed,
			Restarted:  wi.Restarted,
		}
		if len(wi.Witness) > 0 {
			env := make(expr.Env, len(wi.Witness))
			for _, b := range wi.Witness {
				v, ok := r.decodeVal(b.Val)
				if !ok {
					return nil, false
				}
				env[b.Name] = v
			}
			rec.Witness = env
			if wi.Out != nil {
				out2, ok := r.decodeVal(wi.Out)
				if !ok {
					return nil, false
				}
				// The round's concretization shares the witness valuation,
				// exactly as cegisIteration built it.
				rec.NewExample = &synth.ConcreteExample{S: env, Out: out2}
			}
		}
		out = append(out, rec)
	}
	return out, true
}
