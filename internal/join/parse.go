package join

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseQuery reads a conjunctive query in Datalog-ish syntax:
//
//	R(x,y), S(y,z), T(z,x)
//
// or with an explicit (ignored) head:
//
//	Q(x,y,z) :- R(x,y), S(y,z), T(z,x).
//
// Atom and variable names may contain anything except '(', ')', ',',
// whitespace and '.'. The same relation name may appear in several
// atoms (self-joins).
func ParseQuery(src string) (Query, error) {
	s := strings.TrimSpace(src)
	if i := strings.Index(s, ":-"); i >= 0 {
		s = strings.TrimSpace(s[i+2:])
	}
	s = strings.TrimSuffix(strings.TrimSpace(s), ".")
	var q Query
	pos := 0
	for {
		for pos < len(s) && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == ',') {
			pos++
		}
		if pos >= len(s) {
			break
		}
		open := strings.IndexByte(s[pos:], '(')
		if open < 0 {
			return Query{}, fmt.Errorf("join: expected '(' after atom name at offset %d", pos)
		}
		name := strings.TrimSpace(s[pos : pos+open])
		if name == "" {
			return Query{}, fmt.Errorf("join: empty atom name at offset %d", pos)
		}
		if err := checkName(name); err != nil {
			return Query{}, fmt.Errorf("join: atom name %q: %w", name, err)
		}
		close := strings.IndexByte(s[pos+open:], ')')
		if close < 0 {
			return Query{}, fmt.Errorf("join: unterminated atom %q", name)
		}
		inner := s[pos+open+1 : pos+open+close]
		var vars []string
		for _, v := range strings.Split(inner, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return Query{}, fmt.Errorf("join: empty variable in atom %q", name)
			}
			if err := checkName(v); err != nil {
				return Query{}, fmt.Errorf("join: variable %q in atom %q: %w", v, name, err)
			}
			vars = append(vars, v)
		}
		if len(vars) == 0 {
			return Query{}, fmt.Errorf("join: atom %q has no variables", name)
		}
		q.Atoms = append(q.Atoms, Atom{Relation: name, Vars: vars})
		pos += open + close + 1
	}
	if len(q.Atoms) == 0 {
		return Query{}, fmt.Errorf("join: no atoms found")
	}
	return q, nil
}

// checkName enforces the grammar ParseQuery documents: atom and
// variable names may contain anything except '(', ')', ',', '.' and
// whitespace, and may not contain the rule separator ":-" (ParseQuery
// splits the head off at its first occurrence in the raw string).
// Enforcing it (rather than assuming it) keeps the format unambiguous,
// so parse → format → parse is the identity.
func checkName(name string) error {
	if i := strings.IndexFunc(name, func(r rune) bool {
		return r == '(' || r == ')' || r == ',' || r == '.' || unicode.IsSpace(r)
	}); i >= 0 {
		r, _ := utf8.DecodeRuneInString(name[i:])
		return fmt.Errorf("contains forbidden character %q", r)
	}
	if strings.Contains(name, ":-") {
		return fmt.Errorf("contains the rule separator \":-\"")
	}
	return nil
}

// ParseAggregate reads an aggregate head in the syntax:
//
//	count
//	count distinct(x,y)
//	sum(x) | min(x) | max(x)
//	group g1,g2: <any of the above>
//
// Variables referenced by an aggregate head additionally may not
// contain ':' (the group separator); this is stricter than the atom
// grammar, which keeps the head unambiguous and parse → format → parse
// the identity.
func ParseAggregate(src string) (AggSpec, error) {
	var spec AggSpec
	s := strings.TrimSpace(src)
	if strings.HasPrefix(s, "group") {
		rest, ok := keywordRest(s, "group")
		if !ok {
			return AggSpec{}, fmt.Errorf("join: malformed aggregate group clause %q", s)
		}
		colon := strings.IndexByte(rest, ':')
		if colon < 0 {
			return AggSpec{}, fmt.Errorf("join: aggregate group clause %q is missing ':'", s)
		}
		vars, err := aggVarList(rest[:colon], "group by")
		if err != nil {
			return AggSpec{}, err
		}
		spec.GroupBy = vars
		s = strings.TrimSpace(rest[colon+1:])
	}
	switch {
	case s == "count":
		spec.Kind = AggCount
	case strings.HasPrefix(s, "count"):
		rest, ok := keywordRest(s, "count")
		if !ok || !strings.HasPrefix(rest, "distinct") {
			return AggSpec{}, fmt.Errorf("join: unknown aggregate head %q", s)
		}
		inner, err := aggParens(rest, "distinct")
		if err != nil {
			return AggSpec{}, err
		}
		vars, err := aggVarList(inner, "count distinct")
		if err != nil {
			return AggSpec{}, err
		}
		spec.Kind, spec.Over = AggCountDistinct, vars
	case strings.HasPrefix(s, "sum"), strings.HasPrefix(s, "min"), strings.HasPrefix(s, "max"):
		kw := s[:3]
		inner, err := aggParens(s, kw)
		if err != nil {
			return AggSpec{}, err
		}
		vars, err := aggVarList(inner, kw)
		if err != nil {
			return AggSpec{}, err
		}
		if len(vars) != 1 {
			return AggSpec{}, fmt.Errorf("join: %s takes exactly one variable, got %d", kw, len(vars))
		}
		switch kw {
		case "sum":
			spec.Kind = AggSum
		case "min":
			spec.Kind = AggMin
		case "max":
			spec.Kind = AggMax
		}
		spec.Var = vars[0]
	default:
		return AggSpec{}, fmt.Errorf("join: unknown aggregate head %q", s)
	}
	return spec, nil
}

// aggParens extracts the parenthesised operand list of "kw ( ... )",
// requiring the ')' to close the head.
func aggParens(s, kw string) (string, error) {
	rest := strings.TrimSpace(s[strings.Index(s, kw)+len(kw):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("join: aggregate %s needs a parenthesised variable list, got %q", kw, s)
	}
	return rest[1 : len(rest)-1], nil
}

// aggVarList parses a comma-separated variable list of an aggregate
// head, enforcing the head's stricter name rule (no ':').
func aggVarList(s, what string) ([]string, error) {
	var vars []string
	for _, v := range strings.Split(s, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			return nil, fmt.Errorf("join: empty variable in aggregate %s list", what)
		}
		if err := checkName(v); err != nil {
			return nil, fmt.Errorf("join: aggregate %s variable %q: %w", what, v, err)
		}
		if strings.ContainsRune(v, ':') {
			return nil, fmt.Errorf("join: aggregate %s variable %q: contains forbidden character ':'", what, v)
		}
		vars = append(vars, v)
	}
	return vars, nil
}

// FormatAggregate renders an aggregate head in the syntax ParseAggregate
// reads. GroupBy order is preserved (the canonical result nonetheless
// sorts group columns — see AggResult).
func FormatAggregate(spec AggSpec) string {
	var b strings.Builder
	if len(spec.GroupBy) > 0 {
		b.WriteString("group ")
		b.WriteString(strings.Join(spec.GroupBy, ","))
		b.WriteString(": ")
	}
	switch spec.Kind {
	case AggCount:
		b.WriteString("count")
	case AggCountDistinct:
		fmt.Fprintf(&b, "count distinct(%s)", strings.Join(spec.Over, ","))
	case AggSum, AggMin, AggMax:
		fmt.Fprintf(&b, "%s(%s)", spec.Kind, spec.Var)
	}
	return b.String()
}

// FormatQuery renders a query in the syntax ParseQuery reads:
// comma-separated atoms, terminated by a period.
func FormatQuery(q Query) string {
	var b strings.Builder
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Relation)
		b.WriteByte('(')
		b.WriteString(strings.Join(a.Vars, ","))
		b.WriteByte(')')
	}
	b.WriteByte('.')
	return b.String()
}

// Document is a self-contained conjunctive-query instance: the query
// plus the database it runs over. It is the unit of the line-oriented
// text format understood by ParseDocument:
//
//	% comments start with '%'; blank lines are ignored
//	query R(x,y), S(y,z), T(z,x).
//	rel R(c1,c2)
//	1 2
//	1 3
//	end
//	rel S(c1,c2)
//	2 5
//	end
//	...
//
// One `query` line (ParseQuery syntax), an optional `aggregate` line
// (ParseAggregate syntax, e.g. `aggregate group x: count`), and any
// number of `rel` blocks: a header naming the relation and its columns,
// one whitespace-separated integer tuple per line, closed by `end`.
type Document struct {
	Query Query
	// Aggregate, when non-nil, asks for this aggregate over the query's
	// answers instead of the rows themselves.
	Aggregate *AggSpec
	DB        Database
}

// ParseDocument reads a query+database document. The format round-trips
// through FormatDocument: parsing the formatted form of a parsed
// document yields the same document.
func ParseDocument(src string) (Document, error) {
	doc, err := parseDoc(src, true)
	if err != nil {
		return Document{}, err
	}
	if len(doc.Query.Atoms) == 0 {
		return Document{}, fmt.Errorf("join: document has no query line")
	}
	if doc.Aggregate != nil {
		if err := doc.Aggregate.Validate(doc.Query); err != nil {
			return Document{}, err
		}
	}
	return doc, nil
}

// ParseRelations reads a database alone: rel blocks in the document
// syntax, with no query line. It is what the HTTP query endpoints use
// for the "database" field, where the query travels separately.
func ParseRelations(src string) (Database, error) {
	doc, err := parseDoc(src, false)
	if err != nil {
		return nil, err
	}
	return doc.DB, nil
}

func parseDoc(src string, allowQuery bool) (Document, error) {
	doc := Document{DB: Database{}}
	sawQuery := false
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		switch {
		case line == "" || strings.HasPrefix(line, "%"):
		case allowQuery && strings.HasPrefix(line, "query"):
			rest, ok := keywordRest(line, "query")
			if !ok {
				return Document{}, fmt.Errorf("join: line %d: malformed query line", i+1)
			}
			if sawQuery {
				return Document{}, fmt.Errorf("join: line %d: duplicate query line", i+1)
			}
			q, err := ParseQuery(rest)
			if err != nil {
				return Document{}, fmt.Errorf("join: line %d: %w", i+1, err)
			}
			doc.Query = q
			sawQuery = true
		case allowQuery && strings.HasPrefix(line, "aggregate"):
			rest, ok := keywordRest(line, "aggregate")
			if !ok {
				return Document{}, fmt.Errorf("join: line %d: malformed aggregate line", i+1)
			}
			if doc.Aggregate != nil {
				return Document{}, fmt.Errorf("join: line %d: duplicate aggregate line", i+1)
			}
			spec, err := ParseAggregate(rest)
			if err != nil {
				return Document{}, fmt.Errorf("join: line %d: %w", i+1, err)
			}
			doc.Aggregate = &spec
		case strings.HasPrefix(line, "rel"):
			rest, ok := keywordRest(line, "rel")
			if !ok {
				return Document{}, fmt.Errorf("join: line %d: malformed rel header", i+1)
			}
			name, rel, err := parseRelHeader(rest)
			if err != nil {
				return Document{}, fmt.Errorf("join: line %d: %w", i+1, err)
			}
			if _, dup := doc.DB[name]; dup {
				return Document{}, fmt.Errorf("join: line %d: duplicate relation %q", i+1, name)
			}
			end, err := parseTuples(rel, lines, i+1)
			if err != nil {
				return Document{}, err
			}
			doc.DB[name] = rel
			i = end
		default:
			return Document{}, fmt.Errorf("join: line %d: expected %s, end, or comment, got %q",
				i+1, map[bool]string{true: "query, rel", false: "rel"}[allowQuery], line)
		}
	}
	return doc, nil
}

// keywordRest splits "kw rest" and reports whether line really starts
// with the keyword as a word (not merely as a prefix like "relx").
func keywordRest(line, kw string) (string, bool) {
	rest := line[len(kw):]
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// parseRelHeader reads "name(col1,col2,...)" into an empty relation.
func parseRelHeader(s string) (string, *Relation, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("join: rel header %q must be name(col,...)", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return "", nil, fmt.Errorf("join: rel header %q has an empty name", s)
	}
	if err := checkName(name); err != nil {
		return "", nil, fmt.Errorf("join: relation name %q: %w", name, err)
	}
	var attrs []string
	seen := map[string]bool{}
	for _, a := range strings.Split(s[open+1:len(s)-1], ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return "", nil, fmt.Errorf("join: rel %q has an empty column name", name)
		}
		if err := checkName(a); err != nil {
			return "", nil, fmt.Errorf("join: column %q of rel %q: %w", a, name, err)
		}
		if seen[a] {
			return "", nil, fmt.Errorf("join: rel %q repeats column %q", name, a)
		}
		seen[a] = true
		attrs = append(attrs, a)
	}
	return name, NewRelation(attrs...), nil
}

// parseTuples reads integer tuple lines into rel until the closing
// `end`, returning the index of that line.
func parseTuples(rel *Relation, lines []string, start int) (int, error) {
	vals := make([]int, len(rel.Attrs))
	for i := start; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if line == "end" {
			return i, nil
		}
		fields := strings.Fields(line)
		if len(fields) != len(rel.Attrs) {
			return 0, fmt.Errorf("join: line %d: tuple has %d values, relation has %d columns",
				i+1, len(fields), len(rel.Attrs))
		}
		for j, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return 0, fmt.Errorf("join: line %d: value %q is not an integer", i+1, f)
			}
			vals[j] = v
		}
		rel.AddRow(vals)
	}
	return 0, fmt.Errorf("join: relation block starting at line %d is not closed with end", start)
}

// FormatDocument renders a document in the format ParseDocument reads;
// a document with no query atoms renders as a database alone, in the
// format ParseRelations reads. Relations are emitted in sorted name
// order so the output is deterministic; tuple order within a relation
// is preserved.
func FormatDocument(doc Document) string {
	var b strings.Builder
	if len(doc.Query.Atoms) > 0 {
		b.WriteString("query ")
		b.WriteString(FormatQuery(doc.Query))
		b.WriteByte('\n')
	}
	if doc.Aggregate != nil {
		b.WriteString("aggregate ")
		b.WriteString(FormatAggregate(*doc.Aggregate))
		b.WriteByte('\n')
	}
	names := make([]string, 0, len(doc.DB))
	for name := range doc.DB {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel := doc.DB[name]
		fmt.Fprintf(&b, "rel %s(%s)\n", name, strings.Join(rel.Attrs, ","))
		row := make([]int, 0, len(rel.Attrs))
		for i := 0; i < rel.Size(); i++ {
			row = rel.AppendRow(row[:0], i)
			for j, v := range row {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(strconv.Itoa(v))
			}
			b.WriteByte('\n')
		}
		b.WriteString("end\n")
	}
	return b.String()
}
