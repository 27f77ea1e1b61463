package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	sp, err := parseSpec(`
universe 4;
enum E { c1, c2 };
var a: Int;       // a comment
var s: Set;
output o: Int;
example true ==> o >= a;
example a > 0 ==> o = a;
`)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumCaches != 4 {
		t.Errorf("NumCaches = %d", sp.NumCaches)
	}
	if len(sp.Enums) != 1 || sp.Enums[0].Name != "E" || len(sp.Enums[0].Values) != 2 {
		t.Errorf("enums = %+v", sp.Enums)
	}
	if len(sp.Vars) != 2 || sp.Vars[1].Type != "Set" {
		t.Errorf("vars = %+v", sp.Vars)
	}
	if sp.Output.Name != "o" {
		t.Errorf("output = %+v", sp.Output)
	}
	if len(sp.Examples) != 2 || sp.Examples[1].Pre != "a > 0" {
		t.Errorf("examples = %+v", sp.Examples)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		"var a: Int;",                   // no output, no examples
		"output o: Int;",                // no examples
		"output o: Int; example o = 1;", // missing ==>
		"output o: Int; output p: Int; example true ==> o = 0;", // duplicate output
		"universe x; output o: Int; example true ==> o = 0;",    // bad universe
		"wibble; output o: Int; example true ==> o = 0;",        // unknown stmt
	}
	for _, src := range cases {
		if _, err := parseSpec(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	err := run(`
var a: Int;
var b: Int;
output o: Int;
example true ==> (o >= a) & (o >= b) & ((o = a) | (o = b));
`, inferOptions{maxSize: 8, stats: true})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithEnumAndSets(t *testing.T) {
	err := run(`
enum K { Red, Blue };
var k: K;
var s: Set;
var p: PID;
output o: Set;
example k = Red ==> o = setadd(s, p);
example k != Red ==> o = setminus(s, setof(p));
`, inferOptions{maxSize: 12})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	err := run(`
var a: Int;
var b: Int;
output o: Int;
example true ==> (o >= a) & (o >= b) & ((o = a) | (o = b));
`, inferOptions{maxSize: 8, cegisTrace: true, tracePath: tracePath, statsSummary: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("trace is not valid JSON")
	}
}

// TestRunShadowedInput checks an output named like an input fails with
// the shared elaborator's error before any synthesis runs, and so does a
// duplicated input.
func TestRunShadowedInput(t *testing.T) {
	for src, want := range map[string]string{
		"var a: Int; output a: Int; example true ==> a = 0;":             `output "a" shadows an input variable`,
		"var a: Int; var a: Int; output o: Int; example true ==> o = a;": `duplicate variable "a"`,
	} {
		err := run(src, inferOptions{maxSize: 4})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%q) error = %v, want %s", src, err, want)
		}
	}
}

// TestRunUnknownType checks a declaration of an undeclared type fails
// with the shared type-name parser's error.
func TestRunUnknownType(t *testing.T) {
	err := run("var a: Quux; output o: Int; example true ==> o = 0;", inferOptions{maxSize: 4})
	if err == nil || !strings.Contains(err.Error(), `unknown type "Quux"`) {
		t.Fatalf("run with an unknown type: error = %v", err)
	}
}
