// LQL — the Legion Query Language — is the plane's query surface: a
// single-table select over the live cluster view.
//
//	query  := SELECT cols FROM table [WHERE expr]
//	          [ORDER BY col [ASC|DESC]] [LIMIT n]
//	cols   := '*' | col (',' col)*
//	expr   := and ( OR and )*
//	and    := cmp ( AND cmp )*
//	cmp    := '(' expr ')' | col op literal
//	op     := = | != | < | <= | > | >= | LIKE
//	literal:= 'string' | "string" | number | duration | true | false
//
// Tables: objects, placements, hosts, events, checkpoints, methods,
// metrics, epochs, breakers, spans, obs (see Plane). Durations are Go literals (1ms, 250us);
// LIKE matches with % wildcards. Keywords and column names are
// case-insensitive; everything evaluates server-side over live state,
// so a query is one message regardless of cluster size.

package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Source serves base tables to LQL queries.
type Source interface {
	// Tables lists the queryable table names.
	Tables() []string
	// Table materializes one base table by name.
	Table(name string) (*Table, error)
}

// RunQuery parses and evaluates q against src.
func RunQuery(src Source, q string) (*Table, error) {
	pq, err := parseQuery(q)
	if err != nil {
		return nil, err
	}
	base, err := src.Table(pq.table)
	if err != nil {
		return nil, fmt.Errorf("lql: %w (tables: %s)", err, strings.Join(src.Tables(), ", "))
	}
	return pq.eval(base)
}

type parsedQuery struct {
	cols    []string // nil means *
	table   string
	where   *lqlExpr
	orderBy string
	desc    bool
	limit   int // -1 = none
}

// lqlExpr is a where-clause node: a boolean combinator (op "and"/"or"
// with l/r set) or a comparison leaf (col, cmp, val).
type lqlExpr struct {
	op   string
	l, r *lqlExpr
	col  string
	cmp  string
	val  Value
}

func (e *lqlExpr) eval(t *Table, row []Value) (bool, error) {
	switch e.op {
	case "and":
		lv, err := e.l.eval(t, row)
		if err != nil || !lv {
			return false, err
		}
		return e.r.eval(t, row)
	case "or":
		lv, err := e.l.eval(t, row)
		if err != nil || lv {
			return lv, err
		}
		return e.r.eval(t, row)
	}
	ci := t.colIndex(e.col)
	if ci < 0 || ci >= len(row) {
		return false, fmt.Errorf("lql: unknown column %q (have: %s)", e.col, strings.Join(t.Cols, ", "))
	}
	cell := row[ci]
	switch e.cmp {
	case "=":
		return Compare(cell, e.val) == 0, nil
	case "!=":
		return Compare(cell, e.val) != 0, nil
	case "<":
		return Compare(cell, e.val) < 0, nil
	case "<=":
		return Compare(cell, e.val) <= 0, nil
	case ">":
		return Compare(cell, e.val) > 0, nil
	case ">=":
		return Compare(cell, e.val) >= 0, nil
	case "like":
		return likeMatch(cell.String(), e.val.String()), nil
	}
	return false, fmt.Errorf("lql: unknown operator %q", e.cmp)
}

// likeMatch implements SQL LIKE with % wildcards (case-insensitive).
func likeMatch(s, pattern string) bool {
	s = strings.ToLower(s)
	parts := strings.Split(strings.ToLower(pattern), "%")
	if len(parts) == 1 {
		return s == parts[0]
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		i := strings.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return strings.HasSuffix(s, last)
}

func (pq *parsedQuery) eval(base *Table) (*Table, error) {
	// Filter.
	rows := base.Rows
	if pq.where != nil {
		rows = nil
		for _, row := range base.Rows {
			ok, err := pq.where.eval(base, row)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, row)
			}
		}
	}
	// Order.
	if pq.orderBy != "" {
		oi := base.colIndex(pq.orderBy)
		if oi < 0 {
			return nil, fmt.Errorf("lql: unknown order-by column %q (have: %s)", pq.orderBy, strings.Join(base.Cols, ", "))
		}
		rows = append([][]Value(nil), rows...)
		sort.SliceStable(rows, func(i, j int) bool {
			c := Compare(rows[i][oi], rows[j][oi])
			if pq.desc {
				return c > 0
			}
			return c < 0
		})
	}
	// Limit.
	if pq.limit >= 0 && len(rows) > pq.limit {
		rows = rows[:pq.limit]
	}
	// Project.
	if pq.cols == nil {
		return &Table{Cols: base.Cols, Rows: rows}, nil
	}
	idx := make([]int, len(pq.cols))
	out := &Table{Cols: make([]string, len(pq.cols))}
	for i, c := range pq.cols {
		ci := base.colIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("lql: unknown column %q (have: %s)", c, strings.Join(base.Cols, ", "))
		}
		idx[i] = ci
		out.Cols[i] = base.Cols[ci]
	}
	for _, row := range rows {
		pr := make([]Value, len(idx))
		for i, ci := range idx {
			if ci < len(row) {
				pr[i] = row[ci]
			}
		}
		out.Rows = append(out.Rows, pr)
	}
	return out, nil
}

// --- lexer ---

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokStr
	tokNum
	tokDur
	tokPunct
	tokEOF
)

type token struct {
	kind tokKind
	s    string
	f    float64
	d    time.Duration
}

func lex(q string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(q) {
		c := q[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',' || c == '(' || c == ')' || c == '*':
			toks = append(toks, token{kind: tokPunct, s: string(c)})
			i++
		case c == '=':
			toks = append(toks, token{kind: tokPunct, s: "="})
			i++
		case c == '!' || c == '<' || c == '>':
			op := string(c)
			i++
			if i < len(q) && q[i] == '=' {
				op += "="
				i++
			}
			if op == "!" {
				return nil, fmt.Errorf("lql: stray '!' (use !=)")
			}
			toks = append(toks, token{kind: tokPunct, s: op})
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(q) && q[j] != quote {
				j++
			}
			if j >= len(q) {
				return nil, fmt.Errorf("lql: unterminated string")
			}
			toks = append(toks, token{kind: tokStr, s: q[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(q) && q[i+1] >= '0' && q[i+1] <= '9':
			j := i + 1
			for j < len(q) && (q[j] >= '0' && q[j] <= '9' || q[j] == '.' || q[j] == 'e' ||
				q[j] == 'E' || isAlpha(q[j]) || q[j] == 'µ') {
				j++
			}
			lit := q[i:j]
			if f, err := strconv.ParseFloat(lit, 64); err == nil {
				toks = append(toks, token{kind: tokNum, f: f})
			} else if d, derr := time.ParseDuration(lit); derr == nil {
				toks = append(toks, token{kind: tokDur, d: d})
			} else {
				return nil, fmt.Errorf("lql: bad literal %q", lit)
			}
			i = j
		case isAlpha(c) || c == '_':
			j := i + 1
			for j < len(q) && (isAlpha(q[j]) || q[j] >= '0' && q[j] <= '9' || q[j] == '_' ||
				q[j] == '/' || q[j] == '.' || q[j] == ':' || q[j] == '-') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, s: q[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("lql: unexpected character %q", string(c))
		}
	}
	toks = append(toks, token{kind: tokEOF})
	return toks, nil
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.s, kw) {
		p.pos++
		return true
	}
	return false
}

func parseQuery(q string) (*parsedQuery, error) {
	toks, err := lex(q)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	pq := &parsedQuery{limit: -1}
	if !p.keyword("select") {
		return nil, fmt.Errorf("lql: query must start with select")
	}
	if t := p.peek(); t.kind == tokPunct && t.s == "*" {
		p.next()
	} else {
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("lql: expected column name")
			}
			pq.cols = append(pq.cols, t.s)
			if t := p.peek(); t.kind == tokPunct && t.s == "," {
				p.next()
				continue
			}
			break
		}
	}
	if !p.keyword("from") {
		return nil, fmt.Errorf("lql: expected 'from'")
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("lql: expected table name")
	}
	pq.table = strings.ToLower(t.s)
	if p.keyword("where") {
		pq.where, err = p.parseOr()
		if err != nil {
			return nil, err
		}
	}
	if p.keyword("order") {
		if !p.keyword("by") {
			return nil, fmt.Errorf("lql: expected 'by' after 'order'")
		}
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("lql: expected order-by column")
		}
		pq.orderBy = t.s
		if p.keyword("desc") {
			pq.desc = true
		} else {
			p.keyword("asc")
		}
	}
	if p.keyword("limit") {
		t := p.next()
		if t.kind != tokNum || t.f < 0 {
			return nil, fmt.Errorf("lql: expected non-negative limit")
		}
		pq.limit = int(t.f)
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("lql: trailing input at %q", p.peek().s)
	}
	return pq, nil
}

func (p *parser) parseOr() (*lqlExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &lqlExpr{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (*lqlExpr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &lqlExpr{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (*lqlExpr, error) {
	if t := p.peek(); t.kind == tokPunct && t.s == "(" {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if t := p.next(); t.kind != tokPunct || t.s != ")" {
			return nil, fmt.Errorf("lql: expected ')'")
		}
		return e, nil
	}
	col := p.next()
	if col.kind != tokIdent {
		return nil, fmt.Errorf("lql: expected column in where clause")
	}
	var cmp string
	if op := p.peek(); op.kind == tokPunct {
		switch op.s {
		case "=", "!=", "<", "<=", ">", ">=":
			cmp = op.s
			p.next()
		}
	} else if p.keyword("like") {
		cmp = "like"
	}
	if cmp == "" {
		return nil, fmt.Errorf("lql: expected comparison operator after %q", col.s)
	}
	lit := p.next()
	var v Value
	switch lit.kind {
	case tokStr:
		v = Str(lit.s)
	case tokNum:
		v = Num(lit.f)
	case tokDur:
		v = Dur(lit.d)
	case tokIdent:
		switch strings.ToLower(lit.s) {
		case "true":
			v = Bool(true)
		case "false":
			v = Bool(false)
		default:
			// A bare identifier literal reads as a string: host names
			// and LOIDs are the common right-hand sides.
			v = Str(lit.s)
		}
	default:
		return nil, fmt.Errorf("lql: expected literal after %q %s", col.s, cmp)
	}
	return &lqlExpr{col: col.s, cmp: cmp, val: v}, nil
}
