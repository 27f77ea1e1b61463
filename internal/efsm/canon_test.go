package efsm_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"transit/internal/core"
	"transit/internal/efsm"
	"transit/internal/expr"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// scanCanonicalize is the reference Canonicalize is held to: the least
// Encode(Permute(st, pi)) over every permutation pi in lexicographic
// order, the first pi that reaches it, and n! over the number that do.
func scanCanonicalize(r *efsm.Runtime, st *efsm.State) (string, efsm.Perm, int) {
	perms := lexPerms(r.Sys.U.NumCaches())
	var key string
	var sigma efsm.Perm
	minimizers := 0
	for _, pi := range perms {
		k := r.Encode(r.Permute(st, pi))
		switch {
		case sigma == nil || k < key:
			key, sigma, minimizers = k, pi, 1
		case k == key:
			minimizers++
		}
	}
	return key, sigma, len(perms) / minimizers
}

// lexPerms lists the permutations of 0..n-1 in lexicographic order.
func lexPerms(n int) []efsm.Perm {
	var ps []efsm.Perm
	var gen func(prefix efsm.Perm, used int)
	gen = func(prefix efsm.Perm, used int) {
		if len(prefix) == n {
			ps = append(ps, slices.Clone(prefix))
			return
		}
		for v := 0; v < n; v++ {
			if used&(1<<v) == 0 {
				gen(append(prefix, v), used|1<<v)
			}
		}
	}
	gen(make(efsm.Perm, 0, n), 0)
	return ps
}

// checkCanonicalize compares enc's key, sigma and orbit size for st with
// the reference's.
func checkCanonicalize(t *testing.T, r *efsm.Runtime, enc *efsm.CanonEncoder, st *efsm.State) {
	t.Helper()
	key, sigma, orbit := enc.Canonicalize(st)
	wkey, wsigma, worbit := scanCanonicalize(r, st)
	if key != wkey || !slices.Equal(sigma, wsigma) || orbit != worbit {
		t.Fatalf("%s:\nCanonicalize gives key %x sigma %v orbit %d\n   the scan gives key %x sigma %v orbit %d",
			r.FormatState(st), key, sigma, orbit, wkey, wsigma, worbit)
	}
}

func encoder(t testing.TB, r *efsm.Runtime) *efsm.CanonEncoder {
	t.Helper()
	g, err := efsm.NewSymGroup(r)
	if err != nil {
		t.Fatal(err)
	}
	return g.Encoder()
}

// testSystem is a runtime the exhaustive tests walk.
type testSystem struct {
	name string
	r    *efsm.Runtime
}

// testSystems returns the symmetric token system and the four completed
// protocols at 3 caches.
func testSystems(t *testing.T) []testSystem {
	t.Helper()
	_, sym := efsm.SymSystem(t)
	systems := []testSystem{{"sym", sym}}
	for _, p := range []struct {
		name string
		spec *protocols.Spec
	}{
		{"vi", protocols.VI(3)},
		{"msi", protocols.MSI(3)},
		{"mesi", protocols.MESI(3)},
		{"origin", protocols.Origin(3, true)},
	} {
		if _, err := core.CompleteCtx(context.Background(), p.spec.Sys, p.spec.Vocab, p.spec.Snippets,
			core.Options{Limits: synth.Limits{MaxSize: 12}}); err != nil {
			t.Fatalf("completing %s: %v", p.name, err)
		}
		r, err := efsm.NewRuntime(p.spec.Sys)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, testSystem{p.name, r})
	}
	return systems
}

// walk visits every reachable state of r breadth-first and calls visit on
// each successor with its parent, the parent's actions and the action's
// index. It returns the state and successor counts.
func walk(r *efsm.Runtime, visit func(st, next *efsm.State, acts []efsm.Action, i int)) (int, int) {
	init := r.Initial()
	seen := map[string]bool{r.Encode(init): true}
	successors := 0
	for queue := []*efsm.State{init}; len(queue) > 0; queue = queue[1:] {
		acts, _ := r.Actions(queue[0])
		for i, a := range acts {
			next := r.Apply(queue[0], a)
			visit(queue[0], next, acts, i)
			successors++
			if k := r.Encode(next); !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	return len(seen), successors
}

// TestAppendFormsMatchWrappers holds the stepper and each append form to
// the call that wraps it, on every successor of every reachable state of
// the systems TestCanonicalizeMatchesScan walks, writing into buffers
// reused from one call to the next as the model checker does:
// Stepper.Actions to Actions with messages left out, Stepper.Apply to Apply
// and to RefApply, AppendEncode to Encode and to RefEncode, AppendPermute
// to Permute, and AppendCanonical to Canonicalize. RefApply and RefEncode
// write every slot one at a time, so they also catch a run of untouched
// slots or a vector copied whole that the wrappers would share.
//
// Stepper.Apply indexes each successor as it writes it. That index must
// equal a fresh index of a copy of the vector; the stepper's AppendEncode,
// AppendPermute and AppendCanonical, which read it, must write what the
// Runtime and CanonEncoder forms write, both from the successor's bytes
// and from a copy of them, as the model checker passes one or the other;
// and a successor the stepper calls its own key must encode to its
// vector.
func TestAppendFormsMatchWrappers(t *testing.T) {
	for _, s := range testSystems(t) {
		t.Run(s.name, func(t *testing.T) {
			r := s.r
			g, err := efsm.NewSymGroup(r)
			if err != nil {
				t.Fatal(err)
			}
			enc := g.Encoder()
			step := r.NewStepper()
			rng := rand.New(rand.NewSource(1))
			var acts []efsm.Action
			var succ, moved, ref, key, skey []byte
			owns := 0
			_, successors := walk(r, func(st, next *efsm.State, want []efsm.Action, i int) {
				if i == 0 {
					// A new parent: the stepper indexes it once for all its
					// actions.
					acts, _ = step.Actions(acts[:0], st)
					bare := slices.Clone(want)
					for j := range bare {
						bare[j].Msg = nil
					}
					if !reflect.DeepEqual(acts, bare) {
						t.Fatalf("%s: Stepper.Actions gives %v, Actions %v", r.FormatState(st), acts, want)
					}
				}
				var own bool
				succ, own = step.Apply(succ[:0], acts[i])
				if v := efsm.View(succ); !reflect.DeepEqual(&v, next) {
					t.Fatalf("%s: Stepper.Apply(%s) differs from Apply", r.FormatState(st), r.FormatAction(want[i]))
				}
				if ref = efsm.RefApply(r, ref[:0], st, want[i]); !bytes.Equal(succ, ref) {
					t.Fatalf("%s: Stepper.Apply(%s) differs from the reference applier", r.FormatState(st), r.FormatAction(want[i]))
				}
				moved = append(moved[:0], succ...)
				views := []efsm.State{efsm.View(succ), efsm.View(moved)}
				if !efsm.IndexMatches(step, &views[1]) {
					t.Fatalf("%s: Stepper.Apply(%s) wrote a slot index other than the vector's", r.FormatState(st), r.FormatAction(want[i]))
				}
				if key = r.AppendEncode(key[:0], next); string(key) != r.Encode(next) {
					t.Fatalf("%s: AppendEncode differs from Encode", r.FormatState(next))
				}
				if ref = efsm.RefEncode(r, ref[:0], next); !bytes.Equal(key, ref) {
					t.Fatalf("%s: AppendEncode differs from the reference image writer", r.FormatState(next))
				}
				for _, v := range views {
					if skey = step.AppendEncode(skey[:0], &v); !bytes.Equal(skey, key) {
						t.Fatalf("%s: Stepper.AppendEncode differs from AppendEncode", r.FormatState(next))
					}
				}
				if own {
					owns++
					if !bytes.Equal(key, succ) {
						t.Fatalf("%s: the stepper calls the successor its own key, but Encode differs from its vector", r.FormatState(next))
					}
				}
				pi := g.Perm(rng.Intn(g.Size()))
				ref = r.AppendPermute(ref[:0], next, pi)
				if v := efsm.View(ref); !reflect.DeepEqual(&v, r.Permute(next, pi)) {
					t.Fatalf("%s: AppendPermute(%v) differs from Permute", r.FormatState(next), pi)
				}
				for _, v := range views {
					if skey = step.AppendPermute(skey[:0], &v, pi); !bytes.Equal(skey, ref) {
						t.Fatalf("%s: Stepper.AppendPermute(%v) differs from AppendPermute", r.FormatState(next), pi)
					}
				}
				var rank, orbit int
				key, rank, orbit = enc.AppendCanonical(key[:0], next)
				wkey, wsigma, worbit := enc.Canonicalize(next)
				if string(key) != wkey || !slices.Equal(g.Perm(rank), wsigma) || orbit != worbit {
					t.Fatalf("%s: AppendCanonical differs from Canonicalize", r.FormatState(next))
				}
				for _, v := range views {
					var srank, sorbit int
					if skey, srank, sorbit = step.AppendCanonical(enc, skey[:0], &v); !bytes.Equal(skey, key) || srank != rank || sorbit != orbit {
						t.Fatalf("%s: Stepper.AppendCanonical differs from AppendCanonical", r.FormatState(next))
					}
				}
			})
			t.Logf("%d of %d successors are their own key", owns, successors)
		})
	}
}

// TestPlainKeyHitIsCanonical checks the premise of the model checker's
// plain-key shortcut on the walk TestCanonicalizeMatchesScan takes: a
// successor whose Encode is a canonical key the walk has already produced
// canonicalizes to exactly that key, because a canonical key is the least
// Encode image of its orbit. Every system must hit at least once.
func TestPlainKeyHitIsCanonical(t *testing.T) {
	for _, s := range testSystems(t) {
		t.Run(s.name, func(t *testing.T) {
			enc := encoder(t, s.r)
			canon := map[string]bool{}
			hits := 0
			_, successors := walk(s.r, func(_, next *efsm.State, _ []efsm.Action, _ int) {
				plain := s.r.Encode(next)
				key, _, _ := enc.Canonicalize(next)
				if canon[plain] {
					hits++
					if key != plain {
						t.Fatalf("%s: plain key %x is a canonical key already produced, but Canonicalize gives %x",
							s.r.FormatState(next), plain, key)
					}
				}
				canon[key] = true
			})
			if hits == 0 {
				t.Fatalf("none of %d successors has a plain key the walk produced as a canonical key", successors)
			}
			t.Logf("%d of %d successors hit (%.1f%%)", hits, successors, 100*float64(hits)/float64(successors))
		})
	}
}

// TestCanonicalizeMatchesScan holds Canonicalize to the reference scan on
// every successor of every reachable state of the token system and of
// the four completed protocols at 3 caches, and on 8-cache states that
// hold PID 7 and the full set, the widest values one byte carries.
func TestCanonicalizeMatchesScan(t *testing.T) {
	for _, s := range testSystems(t) {
		t.Run(s.name, func(t *testing.T) {
			enc := encoder(t, s.r)
			states, successors := walk(s.r, func(st, next *efsm.State, _ []efsm.Action, _ int) {
				checkCanonicalize(t, s.r, enc, next)
			})
			t.Logf("%d states, %d successors", states, successors)
		})
	}
	t.Run("n=8", func(t *testing.T) {
		r := canonSystem(t, 8)
		enc := encoder(t, r)
		last, full := expr.PIDVal(7), expr.SetVal(0xFF)
		peers, twins := r.InstancesOf(r.Sys.Defs[0]), r.InstancesOf(r.Sys.Defs[2])
		hub := r.InstancesOf(r.Sys.Defs[3])[0]
		// Networks 0, 1 and 2 are Fwd, Ack and Req.
		for i, fill := range []func(st *efsm.State){
			func(st *efsm.State) {
				r.SetVar(st, hub, "P", last)
				r.SetVar(st, hub, "S", full)
			},
			func(st *efsm.State) {
				r.SetVar(st, peers[3], "P", last)
				r.SetVar(st, peers[5], "S", full)
				r.SetVar(st, twins[7], "Q", last)
			},
			func(st *efsm.State) {
				r.SetVar(st, hub, "P", last)
				r.SetCtl(st, peers[7], "Y")
				r.SetPending(st, 1, 7, efsm.Msg{canonKind(r, 1), last, expr.PIDVal(2), full})
				r.SetPending(st, 2, 0,
					efsm.Msg{canonKind(r, 0), last, full},
					efsm.Msg{canonKind(r, 0), expr.PIDVal(6), expr.SetVal(0x80)})
			},
			func(st *efsm.State) {
				r.SetPending(st, 0, 7, efsm.Msg{canonKind(r, 1), last, last, full})
				r.SetPending(st, 0, 2, efsm.Msg{canonKind(r, 1), expr.PIDVal(2), last, expr.SetVal(0x7F)})
			},
		} {
			st := r.Initial()
			fill(st)
			checkCanonicalize(t, r, enc, st)
			if i == 0 {
				// Only PID 7 and PID 0, which every other PID variable
				// holds, stand out: the orbit has 8·7 states.
				if _, _, orbit := enc.Canonicalize(st); orbit != 56 {
					t.Errorf("orbit %d, want 56", orbit)
				}
			}
		}
	})
}

// canonSystem builds an n-cache system that takes Canonicalize down every
// path the built-in protocols leave alone: a replicated definition with
// PID and Set variables, a second and a third replicated definition (one
// without PID or Set variables), a singleton after them, ordered and
// unordered by-field networks whose records carry PID and Set fields, and
// an unordered static network. It has no transitions: the tests set its
// states directly.
func canonSystem(t testing.TB, n int) *efsm.Runtime {
	t.Helper()
	u := expr.NewUniverse(n)
	kind := expr.EnumOf(u.MustDeclareEnum("CanonKind", "A", "B"))
	states := u.MustDeclareEnum("CanonSt", "X", "Y")
	peer := &efsm.ProcDef{Name: "Peer", States: states, Init: "X", Replicated: true,
		Vars: []*expr.Var{expr.V("P", expr.PIDType), expr.V("S", expr.SetType)}}
	mute := &efsm.ProcDef{Name: "Mute", States: states, Init: "X", Replicated: true,
		Vars: []*expr.Var{expr.V("I", expr.IntType)}}
	twin := &efsm.ProcDef{Name: "Twin", States: states, Init: "X", Replicated: true,
		Vars: []*expr.Var{expr.V("Q", expr.PIDType)}}
	hub := &efsm.ProcDef{Name: "Hub", States: states, Init: "X",
		Vars: []*expr.Var{expr.V("P", expr.PIDType), expr.V("S", expr.SetType)}}
	routed := []efsm.Field{{Name: "K", T: kind}, {Name: "Dest", T: expr.PIDType},
		{Name: "From", T: expr.PIDType}, {Name: "S", T: expr.SetType}}
	sys := &efsm.System{Name: "canon", U: u, Defs: []*efsm.ProcDef{peer, mute, twin, hub},
		Networks: []*efsm.Network{
			{Name: "Fwd", Kind: efsm.Ordered, Receiver: peer, Route: efsm.RouteByField, DestField: "Dest",
				Msg: &efsm.MessageType{Name: "FwdM", Fields: routed}},
			{Name: "Ack", Kind: efsm.Unordered, Receiver: twin, Route: efsm.RouteByField, DestField: "Dest",
				Msg: &efsm.MessageType{Name: "AckM", Fields: routed}},
			{Name: "Req", Kind: efsm.Unordered, Receiver: hub, Route: efsm.RouteStatic,
				Msg: &efsm.MessageType{Name: "ReqM", Fields: []efsm.Field{{Name: "K", T: kind},
					{Name: "From", T: expr.PIDType}, {Name: "S", T: expr.SetType}}}},
		}}
	r, err := efsm.NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// canonKind is value i of canonSystem's message-kind enum.
func canonKind(r *efsm.Runtime, i int) expr.Value {
	return expr.EnumVal(r.Sys.Networks[0].Msg.Fields[0].T.Enum, i)
}

// randomCanonState fills a canonSystem state from rng. Each definition
// and each network is left at its initial value, or every instance (slot)
// takes one of a few random profiles. A profile names PIDs relative to
// its holder: its own PID, PID 0, or one drawn at random, and sets are
// empty, full, the holder alone or random. Instances, slots and records
// therefore often coincide, and states with large stabilizers, tied
// branches and cells still open at the networks are common.
func randomCanonState(r *efsm.Runtime, rng *rand.Rand) *efsm.State {
	n, u := r.Sys.U.NumCaches(), r.Sys.U
	// value draws a value of type t for the holder self.
	value := func(rng *rand.Rand, t expr.Type, self int) expr.Value {
		switch t {
		case expr.PIDType:
			return expr.PIDVal([]int{self, 0, rng.Intn(n)}[rng.Intn(3)])
		case expr.SetType:
			return expr.SetVal([]uint64{0, u.SetMask(), 1 << self, rng.Uint64() & u.SetMask()}[rng.Intn(4)])
		case expr.IntType:
			return expr.IntVal(u, int64(rng.Intn(2)))
		}
		return expr.EnumVal(t.Enum, rng.Intn(2))
	}
	// profiles returns 1 to 3 seeds, one per profile; a holder replays
	// its profile's seed, so holders sharing one draw the same values.
	profiles := func() []int64 {
		seeds := make([]int64, 1+rng.Intn(3))
		for i := range seeds {
			seeds[i] = rng.Int63()
		}
		return seeds
	}
	st := r.Initial()
	for _, d := range r.Sys.Defs {
		if rng.Intn(3) == 0 {
			continue
		}
		seeds := profiles()
		for _, inst := range r.InstancesOf(d) {
			prng := rand.New(rand.NewSource(seeds[rng.Intn(len(seeds))]))
			r.SetCtl(st, inst, d.States.Values[prng.Intn(2)])
			for _, v := range d.Vars {
				r.SetVar(st, inst, v.Name, value(prng, v.VT, r.Insts[inst].PID))
			}
		}
	}
	for ni, net := range r.Sys.Networks {
		if rng.Intn(3) == 0 {
			continue
		}
		slots := 1
		if net.Route == efsm.RouteByField {
			slots = n
		}
		seeds := profiles()
		for slot := 0; slot < slots; slot++ {
			prng := rand.New(rand.NewSource(seeds[rng.Intn(len(seeds))]))
			msgs := make([]efsm.Msg, prng.Intn(4))
			for i := range msgs {
				for _, f := range net.Msg.Fields {
					v := value(prng, f.T, slot)
					if f.Name == "Dest" {
						v = expr.PIDVal(slot)
					}
					msgs[i] = append(msgs[i], v)
				}
			}
			r.SetPending(st, ni, slot, msgs...)
		}
	}
	return st
}

// FuzzCanonicalize holds Canonicalize to the reference scan on random
// canonSystem states at 2 to 6 caches, and on a random permutation of
// each, which must canonicalize to the same key and orbit.
func FuzzCanonicalize(f *testing.F) {
	for seed := int64(0); seed < 5; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, caches uint8) {
		n := 2 + int(caches%5)
		r := canonSystem(t, n)
		enc := encoder(t, r)
		rng := rand.New(rand.NewSource(seed))
		st := randomCanonState(r, rng)
		checkCanonicalize(t, r, enc, st)
		perms := lexPerms(n)
		checkCanonicalize(t, r, enc, r.Permute(st, perms[rng.Intn(len(perms))]))
	})
}
