package provenance_test

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"transit/internal/core"
	"transit/internal/obs/provenance"
	"transit/internal/protocols"
	"transit/internal/synth"
)

// iterationKeys are the JSON names of a CEGIS round in the ledger, in the
// order a line carries them.
var iterationKeys = []string{"round", "candidate", "accepted", "killed_by", "witness",
	"counter_out", "enumerated", "kept", "resumed", "restarted"}

// viLedger completes VI at 2 caches with a recorder in the context and
// returns its ledger.
func viLedger(t *testing.T) *provenance.Ledger {
	t.Helper()
	spec := protocols.VI(2)
	rec := provenance.NewRecorder(spec.Name)
	_, err := core.CompleteCtx(provenance.WithRecorder(context.Background(), rec),
		spec.Sys, spec.Vocab, spec.Snippets, core.Options{Limits: synth.Limits{MaxSize: 12}})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Ledger()
}

// refutedRound returns the first hole with a refuted round, and the round.
func refutedRound(t *testing.T, l *provenance.Ledger) (*provenance.HoleRecord, synth.IterRecord) {
	t.Helper()
	for _, h := range l.Holes {
		for _, it := range h.Iterations {
			if !it.Accepted {
				return h, it
			}
		}
	}
	t.Fatal("no hole of the ledger has a refuted round")
	return nil, synth.IterRecord{}
}

// objectKeys returns the keys of a JSON object in the order they appear.
func objectKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	var keys []string
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not an object: %s", raw)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestLedgerRoundTrip checks that a written ledger reads back to the
// same bytes.
func TestLedgerRoundTrip(t *testing.T) {
	l := viLedger(t)
	refutedRound(t, l)
	var first, second bytes.Buffer
	if err := l.WriteNDJSON(&first); err != nil {
		t.Fatal(err)
	}
	back, err := provenance.Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.WriteNDJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("ledger changed across Read:\n--- written\n%.600s\n--- rewritten\n%.600s", first.Bytes(), second.Bytes())
	}
}

// TestIterationKeys checks the JSON names of a CEGIS round on a hole
// line and their order: a refuted round carries the first eight, and the
// two flags follow when set.
func TestIterationKeys(t *testing.T) {
	l := viLedger(t)
	h, it := refutedRound(t, l)
	var buf bytes.Buffer
	if err := (&provenance.Ledger{Version: l.Version, Holes: []*provenance.HoleRecord{h}}).WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(buf.String(), "\n")
	var hole struct{ Iterations []json.RawMessage }
	if err := json.Unmarshal([]byte(line), &hole); err != nil {
		t.Fatal(err)
	}
	var refuted []string
	for _, raw := range hole.Iterations {
		if keys := objectKeys(t, raw); slices.Contains(keys, "witness") {
			refuted = keys
			break
		}
	}
	if !slices.Equal(refuted, iterationKeys[:8]) {
		t.Errorf("refuted round keys %v, want %v", refuted, iterationKeys[:8])
	}
	it.Resumed, it.Restarted = true, true
	raw, err := json.Marshal(it)
	if err != nil {
		t.Fatal(err)
	}
	if keys := objectKeys(t, raw); !slices.Equal(keys, iterationKeys) {
		t.Errorf("round keys %v, want %v", keys, iterationKeys)
	}
}

// TestExplainRendersRefutedRound checks that Explain shows the refuted
// round's witness and the output concretized at it.
func TestExplainRendersRefutedRound(t *testing.T) {
	l := viLedger(t)
	h, it := refutedRound(t, l)
	if it.Witness == "" || it.CounterOut == "" {
		t.Fatalf("refuted round without witness or counter-output: %+v", it)
	}
	var out strings.Builder
	if err := provenance.Explain(&out, l, provenance.ExplainOptions{Hole: strconv.Itoa(h.ID)}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rejected by example " + strconv.Itoa(it.KilledBy),
		"witness: " + it.Witness,
		"admitted concretization: output " + it.CounterOut,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explain output lacks %q:\n%s", want, out.String())
		}
	}
}
