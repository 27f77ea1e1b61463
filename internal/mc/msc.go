package mc

import (
	"context"
	"fmt"
	"strings"

	"transit/internal/efsm"
)

// The paper's methodology includes a counterexample visualizer: the
// programmer studies the violating trace as a message-sequence chart
// (Figure 2 is one) before writing the corrective snippet. FormatMSC
// renders a Violation's underlying action sequence in that style: one
// column per process instance, message arrows between columns, control
// states annotated as they change.

// mscEvent is one row of the chart.
type mscEvent struct {
	// kind: "send", "trigger", "state"
	from, to int // instance columns (to = -1 for local events)
	label    string
}

// FormatMSC renders the action path from the initial state to the
// violation as an ASCII message-sequence chart. It re-executes the trace,
// so it needs the runtime the violation came from.
func FormatMSC(r *efsm.Runtime, actions []efsm.Action) string {
	colWidth := 16
	for _, inst := range r.Insts {
		if len(inst.Name())+4 > colWidth {
			colWidth = len(inst.Name()) + 4
		}
	}
	var events []mscEvent
	st := r.Initial()
	for _, a := range actions {
		if a.Net < 0 {
			events = append(events, mscEvent{from: a.Inst, to: -1,
				label: fmt.Sprintf("%s [%s->%s]", a.Trans.Event.Trigger, a.Trans.From, a.Trans.To)})
		} else {
			net := r.Sys.Networks[a.Net]
			events = append(events, mscEvent{from: a.Inst, to: -1,
				label: fmt.Sprintf("recv %s %s [%s->%s]", net.Name, r.FormatMsg(net, a.Msg),
					a.Trans.From, a.Trans.To)})
		}
		next := r.Apply(st, a)
		// Sends become arrows: diff the network contents.
		for nIdx, net := range r.Sys.Networks {
			slots, prev := r.Pending(next, nIdx), r.Pending(st, nIdx)
			for slot := range slots {
				old := len(prev[slot])
				if nIdx == a.Net && slot == a.Slot {
					old-- // one message was consumed
				}
				for m := old; m < len(slots[slot]); m++ {
					if m < 0 {
						continue
					}
					recv := receiverOf(r, net, slot)
					events = append(events, mscEvent{from: a.Inst, to: recv,
						label: fmt.Sprintf("%s %s", net.Name, r.FormatMsg(net, slots[slot][m]))})
				}
			}
		}
		st = next
	}
	return renderMSC(r, events, colWidth)
}

func receiverOf(r *efsm.Runtime, net *efsm.Network, slot int) int {
	ids := r.InstancesOf(net.Receiver)
	if net.Route == efsm.RouteStatic {
		return ids[0]
	}
	return ids[slot]
}

func renderMSC(r *efsm.Runtime, events []mscEvent, colWidth int) string {
	n := len(r.Insts)
	var sb strings.Builder
	// Header.
	for _, inst := range r.Insts {
		fmt.Fprintf(&sb, "%-*s", colWidth, center(inst.Name(), colWidth))
	}
	sb.WriteByte('\n')
	lifelines := func() []byte {
		row := make([]byte, colWidth*n)
		for i := range row {
			row[i] = ' '
		}
		for c := 0; c < n; c++ {
			row[c*colWidth+colWidth/2] = '|'
		}
		return row
	}
	for _, ev := range events {
		row := lifelines()
		switch {
		case ev.to < 0 || ev.to == ev.from:
			// Local event: annotate beside the lifeline.
			sb.Write(row)
			sb.WriteByte('\n')
			pos := ev.from*colWidth + colWidth/2
			line := string(lifelines()[:pos+1]) + "* " + ev.label
			sb.WriteString(line)
			sb.WriteByte('\n')
		default:
			// Arrow between columns.
			a := ev.from*colWidth + colWidth/2
			b := ev.to*colWidth + colWidth/2
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			for i := lo + 1; i < hi; i++ {
				row[i] = '-'
			}
			if b > a {
				row[hi-1] = '>'
			} else {
				row[lo+1] = '<'
			}
			sb.Write(row)
			sb.WriteString("  " + ev.label)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func center(s string, width int) string {
	if len(s) >= width {
		return s[:width]
	}
	left := (width - len(s)) / 2
	return strings.Repeat(" ", left) + s
}

// CheckWithMSC is Check, additionally rendering the violation (when any)
// as a message-sequence chart.
func CheckWithMSC(r *efsm.Runtime, invs []Invariant, opts Options) (*Result, string, error) {
	return CheckWithMSCCtx(context.Background(), r, invs, opts)
}

// CheckWithMSCCtx is CheckWithMSC under a context (see CheckCtx).
func CheckWithMSCCtx(ctx context.Context, r *efsm.Runtime, invs []Invariant, opts Options) (*Result, string, error) {
	res, err := CheckCtx(ctx, r, invs, opts)
	if err != nil || res.Violation == nil {
		return res, "", err
	}
	return res, FormatMSC(r, res.Violation.actions), nil
}
