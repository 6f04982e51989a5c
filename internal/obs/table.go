package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// Kind types an LQL value.
type Kind uint8

const (
	KStr Kind = iota
	KNum
	KDur
	KTime
	KBool
)

// Value is one LQL cell: a small tagged union so query results keep
// enough type to sort numerically and render naturally.
type Value struct {
	K Kind
	S string
	F float64
	D time.Duration
	T time.Time
	B bool
}

// Str makes a string value.
func Str(s string) Value { return Value{K: KStr, S: s} }

// Num makes a numeric value.
func Num(f float64) Value { return Value{K: KNum, F: f} }

// Dur makes a duration value.
func Dur(d time.Duration) Value { return Value{K: KDur, D: d} }

// TimeOf makes a timestamp value.
func TimeOf(t time.Time) Value { return Value{K: KTime, T: t} }

// Bool makes a boolean value.
func Bool(b bool) Value { return Value{K: KBool, B: b} }

// String renders the value for display.
func (v Value) String() string {
	switch v.K {
	case KStr:
		return v.S
	case KNum:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KDur:
		return v.D.Round(time.Microsecond).String()
	case KTime:
		return v.T.Format("15:04:05.000")
	case KBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return ""
}

// numeric projects the value onto a comparable number axis; ok is
// false for strings.
func (v Value) numeric() (float64, bool) {
	switch v.K {
	case KNum:
		return v.F, true
	case KDur:
		return float64(v.D), true
	case KTime:
		return float64(v.T.UnixNano()), true
	case KBool:
		if v.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Compare orders a before b (<0), equal (0), or after (>0). Values
// comparable as numbers compare numerically (a duration literal
// against a duration column, a number against a count); anything else
// compares as rendered strings.
func Compare(a, b Value) int {
	if fa, ok := a.numeric(); ok {
		if fb, ok2 := b.numeric(); ok2 {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			}
			return 0
		}
	}
	return strings.Compare(a.String(), b.String())
}

// Table is an LQL result set.
type Table struct {
	Cols []string
	Rows [][]Value
}

func (t *Table) colIndex(name string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Format renders the table as aligned text (the `legion query` and
// /debug/query default).
func (t *Table) Format() string {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	rendered := make([][]string, len(t.Rows))
	for ri, row := range t.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
			if i < len(widths) && len(cells[i]) > widths[i] {
				widths[i] = len(cells[i])
			}
		}
		rendered[ri] = cells
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Cols)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, cells := range rendered {
		writeRow(cells)
	}
	return sb.String()
}

// JSON renders the table as an array of {col: value} objects.
func (t *Table) JSON() []byte {
	out := make([]map[string]any, 0, len(t.Rows))
	for _, row := range t.Rows {
		m := make(map[string]any, len(row))
		for i, v := range row {
			if i >= len(t.Cols) {
				break
			}
			switch v.K {
			case KNum:
				m[t.Cols[i]] = v.F
			case KBool:
				m[t.Cols[i]] = v.B
			default:
				m[t.Cols[i]] = v.String()
			}
		}
		out = append(out, m)
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	return b
}

// Marshal encodes the table for the Query member function's reply.
func (t *Table) Marshal() []byte {
	var w wire.Writer
	w.Count64(len(t.Cols))
	for _, c := range t.Cols {
		w.Str64(c)
	}
	w.Count64(len(t.Rows))
	for _, row := range t.Rows {
		w.Count64(len(row))
		for _, v := range row {
			w.U8(byte(v.K))
			switch v.K {
			case KStr:
				w.Str64(v.S)
			case KNum:
				w.U64(math.Float64bits(v.F))
			case KDur:
				w.U64(uint64(v.D))
			case KTime:
				w.U64(uint64(v.T.UnixNano()))
			case KBool:
				w.Bool(v.B)
			}
		}
	}
	return w.Bytes()
}

// UnmarshalTable decodes a Marshal-encoded table.
func UnmarshalTable(b []byte) (*Table, error) {
	r := wire.NewReader(b)
	t := &Table{}
	for i, n := 0, sectionCount(&r, 8, "column"); i < n; i++ {
		t.Cols = append(t.Cols, r.Str64(wire.NoCap))
	}
	for i, n := 0, sectionCount(&r, 8, "row"); i < n; i++ {
		// Every value is at least its kind byte and a bool's one byte.
		row := make([]Value, sectionCount(&r, 2, "row width"))
		for j := range row {
			v := &row[j]
			v.K = Kind(r.U8())
			switch v.K {
			case KStr:
				v.S = r.Str64(wire.NoCap)
			case KNum:
				v.F = math.Float64frombits(r.U64())
			case KDur:
				v.D = time.Duration(r.U64())
			case KTime:
				v.T = time.Unix(0, int64(r.U64()))
			case KBool:
				v.B = r.U8() != 0
			default:
				r.Fail(fmt.Errorf("obs: unknown value kind %d", v.K))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("obs: table: %w", err)
	}
	return t, nil
}
