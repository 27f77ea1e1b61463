package expr

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Value is a typed runtime value. Value is comparable: two Values are equal
// iff they have the same type and denote the same element of the carrier
// set. This makes Values usable directly as map keys and as components of
// expression signatures.
type Value struct {
	t Type
	// n holds the payload for Bool (0/1), Int (wrapped, sign-extended),
	// PID (index) and Enum (ordinal).
	n int64
	// mask holds the payload for Set.
	mask uint64
}

// Type reports the type of the value.
func (v Value) Type() Type { return v.t }

// BoolVal constructs a Boolean value.
func BoolVal(b bool) Value {
	n := int64(0)
	if b {
		n = 1
	}
	return Value{t: BoolType, n: n}
}

// IntVal constructs an integer value, wrapped into the universe's W-bit
// two's-complement range.
func IntVal(u *Universe, x int64) Value {
	return Value{t: IntType, n: u.WrapInt(x)}
}

// PIDVal constructs a process-identifier value. The index must be a valid
// PID in the intended universe; constructors do not carry the universe, so
// range errors surface in the evaluator and SMT layers that do.
func PIDVal(p int) Value { return Value{t: PIDType, n: int64(p)} }

// SetVal constructs a set value from a bitmask over PIDs.
func SetVal(mask uint64) Value { return Value{t: SetType, mask: mask} }

// SetOf constructs a set value containing exactly the given PIDs.
func SetOf(pids ...int) Value {
	var m uint64
	for _, p := range pids {
		m |= 1 << uint(p)
	}
	return SetVal(m)
}

// EnumVal constructs an enum value by ordinal.
func EnumVal(e *EnumType, ord int) Value {
	if ord < 0 || ord >= len(e.Values) {
		panic(fmt.Sprintf("expr: enum %s ordinal %d out of range", e.Name, ord))
	}
	return Value{t: EnumOf(e), n: int64(ord)}
}

// EnumValOf constructs an enum value by name, panicking if absent. Enum
// literal sets are static in protocol specs, so a panic here is a
// programming error, not an input error.
func EnumValOf(e *EnumType, name string) Value {
	ord := e.Ord(name)
	if ord < 0 {
		panic(fmt.Sprintf("expr: enum %s has no value %s", e.Name, name))
	}
	return EnumVal(e, ord)
}

// Bool extracts a Boolean payload.
func (v Value) Bool() bool {
	v.check(KindBool)
	return v.n != 0
}

// Int extracts an integer payload.
func (v Value) Int() int64 {
	v.check(KindInt)
	return v.n
}

// PID extracts a process-identifier payload.
func (v Value) PID() int {
	v.check(KindPID)
	return int(v.n)
}

// Set extracts a set payload as a bitmask.
func (v Value) Set() uint64 {
	v.check(KindSet)
	return v.mask
}

// EnumOrd extracts an enum ordinal payload.
func (v Value) EnumOrd() int {
	v.check(KindEnum)
	return int(v.n)
}

func (v Value) check(k Kind) {
	if v.t.Kind != k {
		panic(fmt.Sprintf("expr: %s payload requested from %s value", k, v.t))
	}
}

// IsZero reports whether v is the zero Value (no type); used to detect
// uninitialized environment slots.
func (v Value) IsZero() bool { return v == Value{} }

// ZeroOf returns the default value of a type: false, 0, PID 0, {}, or the
// first enum value. The EFSM runtime initializes process variables with it.
func ZeroOf(t Type) Value {
	switch t.Kind {
	case KindBool:
		return BoolVal(false)
	case KindInt:
		return Value{t: IntType}
	case KindPID:
		return PIDVal(0)
	case KindSet:
		return SetVal(0)
	case KindEnum:
		return EnumVal(t.Enum, 0)
	}
	panic("expr: ZeroOf on invalid type")
}

// String renders the value in TRANSIT surface syntax.
func (v Value) String() string {
	switch v.t.Kind {
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return fmt.Sprintf("%d", v.n)
	case KindPID:
		return fmt.Sprintf("C%d", v.n)
	case KindSet:
		if v.mask == 0 {
			return "{}"
		}
		var elems []string
		for p := 0; p < 64; p++ {
			if v.mask&(1<<uint(p)) != 0 {
				elems = append(elems, fmt.Sprintf("C%d", p))
			}
		}
		sort.Strings(elems)
		return "{" + strings.Join(elems, ", ") + "}"
	case KindEnum:
		if v.t.Enum != nil && int(v.n) < len(v.t.Enum.Values) {
			return v.t.Enum.Values[v.n]
		}
		return fmt.Sprintf("enum#%d", v.n)
	}
	return "<invalid>"
}

// AppendEncoding appends a compact, injective byte encoding of the value
// (including its type) to dst. Signatures — vectors of values — are encoded
// by concatenation, which stays injective because every value encodes to a
// fixed 10-byte record.
func (v Value) AppendEncoding(dst []byte) []byte {
	var tag byte
	var payload uint64
	switch v.t.Kind {
	case KindBool:
		tag, payload = 0, uint64(v.n)
	case KindInt:
		tag, payload = 1, uint64(v.n)
	case KindPID:
		tag, payload = 2, uint64(v.n)
	case KindSet:
		tag, payload = 3, v.mask
	case KindEnum:
		tag, payload = 4, uint64(v.n)
	}
	dst = append(dst, tag)
	if v.t.Kind == KindEnum {
		dst = append(dst, byte(v.t.Enum.id))
	} else {
		dst = append(dst, 0)
	}
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(payload>>(8*uint(i))))
	}
	return dst
}

// Code returns v's payload as one unsigned word: the mask of a Set, the
// sign-extended two's complement of an Int, and the ordinal or index of a
// Bool, PID or Enum. Within one type, Code is injective.
func (v Value) Code() uint64 {
	if v.t.Kind == KindSet {
		return v.mask
	}
	return uint64(v.n)
}

// FromCode is the inverse of Code: the value of type t whose Code is c. It
// does not check that c names an element of t's domain.
func FromCode(t Type, c uint64) Value {
	if t.Kind == KindSet {
		return Value{t: t, mask: c}
	}
	return Value{t: t, n: int64(c)}
}

// SetSize reports the cardinality of a set value.
func SetSize(v Value) int {
	return bits.OnesCount64(v.Set())
}

// ValuesOf enumerates every value of type t in the universe, in a canonical
// order. It is used by the reference SMT solver and by exhaustive tests;
// callers must ensure the domain is small enough to materialize.
func ValuesOf(u *Universe, t Type) []Value {
	n := u.DomainSize(t)
	out := make([]Value, 0, n)
	switch t.Kind {
	case KindBool:
		out = append(out, BoolVal(false), BoolVal(true))
	case KindInt:
		for x := u.MinInt(); x <= u.MaxInt(); x++ {
			out = append(out, IntVal(u, x))
		}
	case KindPID:
		for p := 0; p < u.NumCaches(); p++ {
			out = append(out, PIDVal(p))
		}
	case KindSet:
		for m := uint64(0); m <= u.SetMask(); m++ {
			out = append(out, SetVal(m))
			if m == u.SetMask() {
				break
			}
		}
	case KindEnum:
		for i := range t.Enum.Values {
			out = append(out, EnumVal(t.Enum, i))
		}
	}
	return out
}

// MaxOf is the last value ValuesOf enumerates for t — the domain's
// saturated element: true, MaxInt, the highest PID, the full set, the
// final enum value.
func MaxOf(u *Universe, t Type) Value {
	switch t.Kind {
	case KindBool:
		return BoolVal(true)
	case KindInt:
		return IntVal(u, u.MaxInt())
	case KindPID:
		return PIDVal(u.NumCaches() - 1)
	case KindSet:
		return SetVal(u.SetMask())
	case KindEnum:
		return EnumVal(t.Enum, len(t.Enum.Values)-1)
	}
	panic("expr: MaxOf on invalid type")
}
