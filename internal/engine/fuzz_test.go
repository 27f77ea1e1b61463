package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"transit/internal/engine/diskcache"
	"transit/internal/expr"
	"transit/internal/synth"
)

// diskEntrySpec is the hole the disk-bytes oracle fetches: a Bool output
// o = (a >= 2) over an Int input a, with an enum and its constants in the
// vocabulary, so entries of every wire node kind can bind.
func diskEntrySpec() SolveSpec {
	return codecSpec(func(o, a *expr.Var, st *expr.EnumType) expr.Expr {
		return expr.Eq(o, expr.Ge(a, expr.IntC(expr.NewUniverse(3), 2)))
	})
}

// fetchEntryFile writes file as spec's entry in dir, opens a store there
// and fetches spec through a fresh cache in front of it.
func fetchEntryFile(t *testing.T, dir string, spec SolveSpec, file []byte) (expr.Expr, synth.Stats, Tier, bool) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, spec.Key()), file, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e, st, _, tier, ok := NewCacheWithBackend(store).Fetch(spec)
	return e, st, tier, ok
}

// fitsHole reports why e is not an answer to spec's hole: a type other
// than the output's, a variable other than an input, or a function or
// enum type from outside the spec's world. An answer must also evaluate.
func fitsHole(spec SolveSpec, e expr.Expr) error {
	p := spec.Problem
	if e.Type() != p.Output.VT {
		return fmt.Errorf("answer %s has type %s, the hole %s", e, e.Type(), p.Output.VT)
	}
	var walk func(x expr.Expr) error
	walk = func(x expr.Expr) error {
		switch n := x.(type) {
		case *expr.Var:
			if !slices.Contains(p.Vars, n) {
				return fmt.Errorf("answer %s names %s, not an input", e, n.Name)
			}
		case *expr.Const:
			if t := n.Type(); t.Kind == expr.KindEnum {
				if te, _ := p.U.Enum(t.Enum.Name); te != t.Enum {
					return fmt.Errorf("answer %s carries a foreign enum %s", e, t)
				}
			}
		case *expr.Apply:
			if fn, ok := p.Vocab.BySig(n.Fn.String()); !ok || fn != n.Fn {
				return fmt.Errorf("answer %s applies a foreign function %s", e, n.Fn)
			}
			for _, a := range n.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(e); err != nil {
		return err
	}
	env := expr.Env{}
	for _, v := range p.Vars {
		env[v.Name] = expr.ZeroOf(v.VT)
	}
	e.Eval(p.U, env)
	return nil
}

// fitsTrace reports why a hit's CEGIS trace is not one a solve of spec's
// hole writes: one round per iteration, numbered from 1, every round but
// the last refuted by one of the spec's examples, the last accepted.
func fitsTrace(spec SolveSpec, st synth.Stats) error {
	if len(st.Trace) != st.Iterations {
		return fmt.Errorf("%d rounds for %d iterations", len(st.Trace), st.Iterations)
	}
	for i, it := range st.Trace {
		switch {
		case it.Round != i+1:
			return fmt.Errorf("round %d numbered %d", i+1, it.Round)
		case i == len(st.Trace)-1 && (!it.Accepted || it.KilledBy != -1):
			return fmt.Errorf("last round %+v is not accepted", it)
		case i < len(st.Trace)-1 && (it.Accepted || it.KilledBy < 0 || it.KilledBy >= len(spec.Examples)):
			return fmt.Errorf("round %+v is not refuted by one of %d examples", it, len(spec.Examples))
		}
	}
	return nil
}

// FuzzDiskEntry is the disk-cache bytes oracle: the fuzzer's bytes, framed
// as an intact entry file (checksum line, then the bytes) so that they
// reach the wire codec, must make Open plus Fetch return a miss or a disk
// hit that fits the hole, with a trace of a solve's shape, and never
// panic. The committed corpus holds EncodeEntry outputs: a real solve
// with its trace, and answers of every wire node kind, some of them of
// the wrong type or naming the output.
func FuzzDiskEntry(f *testing.F) {
	spec := diskEntrySpec()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, val []byte) {
		file := append(fmt.Appendf(nil, "%08x\n", crc32.Checksum(val, castagnoli)), val...)
		e, st, tier, ok := fetchEntryFile(t, t.TempDir(), spec, file)
		if !ok {
			return
		}
		if tier != TierDisk {
			t.Fatalf("fresh cache answered from tier %s", tier)
		}
		if err := fitsHole(spec, e); err != nil {
			t.Fatalf("%v, from %q", err, val)
		}
		if err := fitsTrace(spec, st); err != nil {
			t.Fatalf("%v, from %q", err, val)
		}
	})
}

// TestDiskEntrySeedsAtWireVersion keeps the oracle's corpus live: a seed
// written at another wire version is a miss on the version alone and
// reaches no further into the codec. At least one seed must also be a
// hit that replays a refuted round.
func TestDiskEntrySeedsAtWireVersion(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzDiskEntry/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzDiskEntry seeds (%v)", err)
	}
	refuted := false
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		val, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if header != "go test fuzz v1" || err != nil {
			t.Fatalf("%s is not a []byte corpus file: %v", f, err)
		}
		var v struct{ Version int }
		if err := json.Unmarshal([]byte(val), &v); err != nil || v.Version != wireVersion {
			t.Errorf("%s: version %d, want %d (%v)", f, v.Version, wireVersion, err)
		}
		if ent, ok := DecodeEntry([]byte(val), diskEntrySpec()); ok && len(ent.Stats.Trace) > 1 {
			refuted = true
		}
	}
	if !refuted {
		t.Error("no seed replays a trace with a refuted round")
	}
}

// TestDiskEntryByteFlipsMiss solves the hole through a disk-backed cache
// and flips each byte of the entry file the solve wrote, one at a time:
// every flipped file must read as a miss.
func TestDiskEntryByteFlipsMiss(t *testing.T) {
	spec := diskEntrySpec()
	dir := t.TempDir()
	store, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := NewCacheWithBackend(store).Solve(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	store.Close()
	orig, err := os.ReadFile(filepath.Join(dir, spec.Key()))
	if err != nil {
		t.Fatal(err)
	}
	if e, _, tier, ok := fetchEntryFile(t, dir, spec, orig); !ok || tier != TierDisk {
		t.Fatalf("intact entry file: %v from tier %s", e, tier)
	}
	for i := range orig {
		for _, mask := range []byte{0x01, 0xff} {
			flipped := bytes.Clone(orig)
			flipped[i] ^= mask
			if e, _, _, ok := fetchEntryFile(t, dir, spec, flipped); ok {
				t.Fatalf("byte %d of %d flipped by %#x reads as %s", i, len(orig), mask, e)
			}
		}
	}
}
