package sanalyze

import (
	"fmt"
	"io"
)

// Write renders the report for humans. The layout is deliberately
// stable — the `vcpusim vet` model goldens diff against it.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "model %s: %d places, %d activities\n", r.Model, r.Places, r.Activities)
	if len(r.Disabled) > 0 {
		fmt.Fprintf(w, "  disabled: %s\n", joinComma(r.Disabled))
	}

	certified := 0
	for _, b := range r.Bounds {
		if b.Bound >= 0 {
			certified++
		}
	}
	verdict := "PROVED"
	if certified < len(r.Bounds) {
		verdict = "UNPROVEN"
	}
	fmt.Fprintf(w, "  boundedness: %s (%d/%d places certified)\n", verdict, certified, len(r.Bounds))
	width := 0
	for _, b := range r.Bounds {
		if len(b.Place) > width {
			width = len(b.Place)
		}
	}
	for _, b := range r.Bounds {
		if b.Bound < 0 {
			fmt.Fprintf(w, "    %-*s  unbounded?  %s\n", width, b.Place, b.Detail)
			continue
		}
		fmt.Fprintf(w, "    %-*s  ≤ %-4d %s (%s)\n", width, b.Place, b.Bound, b.Method, b.Detail)
	}

	switch r.Deadlock.Status {
	case "deadlock-free":
		fmt.Fprintf(w, "  deadlock: PROVED FREE via %s (%s)\n", r.Deadlock.Method, r.Deadlock.Detail)
	case "deadlock":
		fmt.Fprintf(w, "  deadlock: FOUND (%s)\n", r.Deadlock.Detail)
	default:
		fmt.Fprintf(w, "  deadlock: UNPROVEN (%s)\n", r.Deadlock.Detail)
	}

	if len(r.PInvariants) > 0 {
		fmt.Fprintf(w, "  P-invariants: %d semipositive\n", len(r.PInvariants))
		for _, iv := range r.PInvariants {
			fmt.Fprintf(w, "    %s = %d\n", iv, iv.Value)
		}
	} else {
		fmt.Fprintf(w, "  P-invariants: none\n")
	}
	if len(r.TInvariants) > 0 {
		fmt.Fprintf(w, "  T-invariants: %d semipositive\n", len(r.TInvariants))
		for _, iv := range r.TInvariants {
			fmt.Fprintf(w, "    %s\n", iv)
		}
	}
	for _, c := range r.Conservation {
		fmt.Fprintf(w, "  conservation: %s OK\n", c)
	}

	if r.Reach.Ran {
		state := "complete"
		if !r.Reach.Complete {
			state = "incomplete"
		}
		fmt.Fprintf(w, "  reachability: %s (%d states, %d firings)\n", state, r.Reach.States, r.Reach.Firings)
	} else {
		fmt.Fprintf(w, "  reachability: skipped (%s)\n", r.Reach.SkipReason)
	}

	if len(r.Findings) == 0 {
		fmt.Fprintf(w, "  findings: none\n")
		return
	}
	fmt.Fprintf(w, "  findings: %d\n", len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(w, "    %s\n", f)
	}
}

func joinComma(items []string) string {
	out := ""
	for i, s := range items {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}
