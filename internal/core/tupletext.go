package core

import (
	"fmt"
	"strconv"
	"strings"

	"provnet/internal/data"
)

// ParseTuple parses a tuple from command-line text such as
// "reachable(a, c)", "path(a, c, [a,b,c], 2)", or with an asserter prefix
// "b says reachable(a, c)". Bare lowercase identifiers are string
// constants, numbers are int/float, quoted strings are strings, and
// [...] are lists, nested at most maxValueDepth deep.
func ParseTuple(s string) (data.Tuple, error) {
	s = strings.TrimSpace(s)
	asserter := ""
	if i := strings.Index(s, " says "); i > 0 && !strings.Contains(s[:i], "(") {
		asserter = strings.TrimSpace(s[:i])
		s = strings.TrimSpace(s[i+len(" says "):])
	}
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return data.Tuple{}, fmt.Errorf("core: cannot parse tuple %q (want pred(arg, ...))", s)
	}
	pred := strings.TrimSpace(s[:open])
	body := s[open+1 : len(s)-1]
	args, err := parseValueList(body)
	if err != nil {
		return data.Tuple{}, fmt.Errorf("core: tuple %q: %w", s, err)
	}
	t := data.Tuple{Pred: pred, Args: args, Asserter: asserter}
	return t, nil
}

// maxValueDepth bounds list nesting in parsed tuple text, matching the
// wire decoder's bound (internal/data): every level re-scans its
// contents, so unbounded nesting is quadratic in the input.
const maxValueDepth = 32

// parseValueList splits a comma-separated argument list, honouring
// brackets and quotes. The outermost scan sees every bracket of the
// argument list, so it is the one that enforces maxValueDepth.
func parseValueList(s string) ([]data.Value, error) {
	var args []data.Value
	depth := 0
	inStr := false
	start := 0
	flush := func(end int) error {
		part := strings.TrimSpace(s[start:end])
		if part == "" {
			return nil
		}
		v, err := parseValue(part)
		if err != nil {
			return err
		}
		args = append(args, v)
		return nil
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '"' && (i == 0 || s[i-1] != '\\') {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '[':
			depth++
			if depth > maxValueDepth {
				return nil, fmt.Errorf("lists nested deeper than %d", maxValueDepth)
			}
		case c == ']':
			depth--
		case c == ',' && depth == 0:
			if err := flush(i); err != nil {
				return nil, err
			}
			start = i + 1
		}
	}
	if inStr || depth != 0 {
		return nil, fmt.Errorf("unbalanced quotes or brackets in %q", s)
	}
	if err := flush(len(s)); err != nil {
		return nil, err
	}
	return args, nil
}

func parseValue(s string) (data.Value, error) {
	switch {
	case s == "true":
		return data.Bool(true), nil
	case s == "false":
		return data.Bool(false), nil
	case strings.HasPrefix(s, `"`):
		u, err := strconv.Unquote(s)
		if err != nil {
			return data.Value{}, err
		}
		return data.Str(u), nil
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return data.Value{}, fmt.Errorf("bad list %q", s)
		}
		elems, err := parseValueList(s[1 : len(s)-1])
		if err != nil {
			return data.Value{}, err
		}
		return data.List(elems...), nil
	default:
		if looksNumeric(s) {
			if i, err := strconv.ParseInt(s, 10, 64); err == nil {
				return data.Int(i), nil
			}
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				return data.Float(f), nil
			}
		}
		if strings.ContainsAny(s, `()[]"`) {
			return data.Value{}, fmt.Errorf("bad value %q", s)
		}
		return data.Str(s), nil
	}
}

// looksNumeric reports whether strconv could parse s as a number: it
// starts with a digit, a sign or a point, or spells inf, infinity or nan
// in any case. Bare identifiers such as n3 skip the parse attempts and
// the *NumError each failed one allocates.
func looksNumeric(s string) bool {
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
		return true
	}
	return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
}
