package protocols

import (
	"strings"
	"testing"
)

// TestBuiltin builds every name the table lists and rejects any other,
// naming the known ones.
func TestBuiltin(t *testing.T) {
	for _, name := range strings.Split(BuiltinNames, ", ") {
		p, err := Builtin(name, 2)
		if err != nil || p.Sys == nil || len(p.Snippets) == 0 {
			t.Errorf("Builtin(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := Builtin("nope", 2); err == nil || !strings.Contains(err.Error(), BuiltinNames) {
		t.Errorf("Builtin(nope) error = %v, want one listing %s", err, BuiltinNames)
	}
}
