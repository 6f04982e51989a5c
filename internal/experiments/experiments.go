// Package experiments implements the timed claims of the evaluation:
// wide-area latency (E15), availability under crash churn (E16),
// per-hop trace attribution (E17), crash recovery (E18) and live
// migration (E19). Each has a Quick and a Full configuration, because
// the Full runs take seconds to minutes. cmd/legion-bench prints these
// tables. Every other claim (E1–E14, E20, E21) runs only in this
// package's tests, as TestAllQuick/EN at its full configuration; E22
// is two benchmarks in internal/magistrate and internal/class.
// EXPERIMENTS.md names the command for each, and DESIGN.md carries the
// index.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Scale selects how big an experiment runs.
type Scale int

const (
	// Quick keeps every experiment under a couple of seconds; used by
	// tests and -quick harness runs.
	Quick Scale = iota
	// Full is the EXPERIMENTS.md configuration.
	Full
)

// Table is one experiment's regenerated result.
type Table struct {
	ID      string // e.g. "E3"
	Title   string
	Claim   string // the paper claim being validated, with section
	Columns []string
	Rows    [][]string
	// Finding summarizes whether the claim held in this run.
	Finding string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "Claim: %s\n\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Finding != "" {
		fmt.Fprintf(&sb, "\nFinding: %s\n", t.Finding)
	}
	return sb.String()
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(scale Scale) (*Table, error)
}

// All lists every experiment in order.
func All() []Runner {
	return []Runner{
		{"E15", "wide-area-latency", RunE15},
		{"E16", "fault-churn", RunE16},
		{"E17", "trace-attribution", RunE17},
		{"E18", "crash-recovery", RunE18},
		{"E19", "live-migration", RunE19},
	}
}

// Find returns the runner with the given id (case-insensitive), or nil.
func Find(id string) *Runner {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) || strings.EqualFold(r.Name, id) {
			return &r
		}
	}
	return nil
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
}
