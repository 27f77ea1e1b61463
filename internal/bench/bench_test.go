package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"transit/internal/synth"
)

func TestTable2Shape(t *testing.T) {
	final, stats, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	rows := stats.Trace
	if len(rows) < 2 || len(rows) > 10 {
		t.Errorf("expected a few CEGIS iterations, got %d", len(rows))
	}
	last := rows[len(rows)-1]
	if !last.Accepted || last.Witness != "" {
		t.Error("final row must be accepted (no witness)")
	}
	if final == "" || stats.SMTQueries == 0 {
		t.Error("final expression / stats missing")
	}
	out := FormatTable2(rows, final)
	if !strings.Contains(out, "Final expression") {
		t.Error("formatter output incomplete")
	}
	// Witnesses read as the ledger writes them, not as Go maps.
	if w := rows[0].Witness; !strings.Contains(out, w) || strings.Contains(out, "map[") {
		t.Errorf("witness %q not rendered as k=v pairs:\n%s", w, out)
	}
	t.Logf("\n%s", out)
}

func TestTable3ShortRows(t *testing.T) {
	rows, err := Table3(Table3Options{Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var solved, skipped int
	for _, r := range rows {
		switch {
		case r.Skipped:
			skipped++
		case r.Stop != nil:
			t.Errorf("%s stopped: %s", r.Name, stopName(r.Stop))
		default:
			solved++
			if r.Found == "" {
				t.Errorf("%s reported no expression", r.Name)
			}
		}
	}
	if skipped == 0 {
		t.Error("long rows should be skipped by default")
	}
	if solved < 8 {
		t.Errorf("expected >= 8 solved rows, got %d", solved)
	}
	t.Logf("\n%s", FormatTable3(rows))
}

func TestFig5SmallShape(t *testing.T) {
	pts, err := Fig5(Fig5Options{
		Sizes: []int{2, 4, 6, 8}, Trials: 2, Seed: 7,
		MaxExhaustiveSize: 8, ExhaustiveCap: 5_000_000, PrunedCap: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// The headline shape: pruning explores no more than exhaustive, and
	// the gap grows with size.
	for _, p := range pts {
		if !p.ExhaustiveRan {
			continue
		}
		if p.PrunedAvg > p.ExhaustiveAvg {
			t.Errorf("size %d: pruned %f > exhaustive %f", p.Size, p.PrunedAvg, p.ExhaustiveAvg)
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.ExhaustiveAvg/last.PrunedAvg <= first.ExhaustiveAvg/first.PrunedAvg {
		t.Logf("warning: ratio did not grow monotonically (%f -> %f); acceptable for tiny trials",
			first.ExhaustiveAvg/first.PrunedAvg, last.ExhaustiveAvg/last.PrunedAvg)
	}
	t.Logf("\n%s", FormatFig5(pts))
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Protocol != "VI" || rows[1].Protocol != "MSI" {
		t.Fatalf("rows = %+v", rows)
	}
	// The paper's shape: MSI has more scenarios, more synthesized
	// updates, more expressions tried, and a larger state space than VI.
	vi, msi := rows[0], rows[1]
	if msi.Scenarios <= vi.Scenarios || msi.UpdatesSynth <= vi.UpdatesSynth ||
		msi.States <= vi.States {
		t.Errorf("MSI should dominate VI: vi=%+v msi=%+v", vi, msi)
	}
	t.Logf("\n%s", FormatTable4(rows))
}

func TestTable5Shape(t *testing.T) {
	rows, err := Table5(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Iterations < 2 {
			t.Errorf("%s: expected iterative convergence, got %d iterations", r.Study, r.Iterations)
		}
		if r.FinalStates == 0 || r.Transitions == 0 {
			t.Errorf("%s: empty final protocol", r.Study)
		}
	}
	t.Logf("\n%s", FormatTable5(rows))
}

// TestTable3StopReasons checks that a row which stops without an answer
// carries synth's typed reason and that the table prints it.
func TestTable3StopReasons(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{fmt.Errorf("%w (20000000 candidates)", synth.ErrExprBudget), "candidate budget"},
		{fmt.Errorf("%w (30m0s)", synth.ErrTimeout), "timeout"},
		{fmt.Errorf("%w (size <= 18, 5 candidates)", synth.ErrSizeBound), "size bound"},
		{fmt.Errorf("%w (64 rounds)", synth.ErrIterBudget), "iteration budget"},
		{synth.ErrNoExpression, "no expression"},
	} {
		row := Table3Row{Name: "max3-functional", Stop: stopReason(c.err), Enumerated: 5}
		out := FormatTable3([]Table3Row{row})
		if !strings.Contains(out, "stopped: "+c.want+" after 5 candidates") {
			t.Errorf("%v: table reads\n%s", c.err, out)
		}
	}
}
