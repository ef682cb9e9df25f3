package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"routeconv/internal/topology"
)

// Parse builds a Script from the compact text grammar (full reference:
// SCENARIOS.md). Statements are separated by ";" or newlines; "#" starts a
// comment running to the end of the line. Each statement is an event:
//
//	fail link 3-7 @400s
//	fail link 3-7,4-8 @400s
//	restore link 3-7,4-8 @410s
//	fail node 12 @400s
//	recover node 12 @430s
//	flap link 3-7 every 6s x5 @400s
//	loss link 1-2 p=0.01 @410s
//	costout link 3-7 @400s
//	costin link 3-7 @500s
//	churn links rate=0.1/s down=2s @450s..600s
//	churn links 3-7,4-8 rate=0.5/s @450s..600s
//	failpath @400s restore=3s flaps=5
//	failrandom @430s
//
// Errors name the line and the offending token. The resulting script is
// stably sorted by event time, so same-instant statements keep their
// order; Parse does not validate cross-event ordering or link existence —
// that is Script.Validate, which needs the horizon and topology.
func Parse(text string) (*Script, error) {
	var events []Event
	line := 1
	for _, raw := range splitStatements(text) {
		stmtLine := line
		line += strings.Count(raw, "\n")
		stmt := raw
		if i := strings.IndexByte(stmt, '#'); i >= 0 {
			stmt = stmt[:i]
		}
		fields := strings.Fields(stmt)
		if len(fields) == 0 {
			continue
		}
		e, err := parseStatement(fields)
		if err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", stmtLine, err)
		}
		events = append(events, e)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Script{Events: events}, nil
}

// splitStatements cuts the text at ";" and newlines, keeping the newlines
// inside each piece's prefix so the caller can track line numbers. A
// statement never spans lines, so cutting at both is safe.
func splitStatements(text string) []string {
	return strings.FieldsFunc(splitKeepNewlines(text), func(r rune) bool { return r == ';' })
}

// splitKeepNewlines normalizes separators: a newline both separates
// statements and advances the line counter, so it is turned into ";\n"
// (the "\n" staying attached to the *previous* piece keeps the count
// simple: Parse counts newlines per piece before parsing it).
func splitKeepNewlines(text string) string {
	return strings.ReplaceAll(text, "\n", "\n;")
}

// parseStatement parses one statement's whitespace-split fields.
func parseStatement(f []string) (Event, error) {
	e := Event{Node: -1}
	var err error
	switch f[0] {
	case "fail", "restore", "recover":
		err = parseFail(&e, f)
	case "flap":
		err = parseFlap(&e, f)
	case "loss":
		err = parseLoss(&e, f)
	case "costout", "costin":
		e.Kind = KindCostOut
		if f[0] == "costin" {
			e.Kind = KindCostIn
		}
		if len(f) != 4 || f[1] != "link" {
			return e, fmt.Errorf("usage: %s link A-B @T", f[0])
		}
		if e.Links, err = oneLink(f[2]); err != nil {
			return e, err
		}
		e.At, err = parseAt(f[3])
	case "churn":
		err = parseChurn(&e, f)
	case "failpath":
		err = parseFailPath(&e, f)
	case "failrandom":
		e.Kind = KindFailRandom
		if len(f) != 2 {
			return e, fmt.Errorf("usage: failrandom @T")
		}
		e.At, err = parseAt(f[1])
	default:
		err = fmt.Errorf("unknown keyword %q", f[0])
	}
	return e, err
}

// parseFail handles "fail|restore link A-B[,C-D] @T" and
// "fail|recover node N @T".
func parseFail(e *Event, f []string) error {
	verb := f[0]
	switch {
	case verb == "recover" && (len(f) < 2 || f[1] != "node"):
		return fmt.Errorf("expected %q after %q", "node", "recover")
	case len(f) < 2:
		return fmt.Errorf("%s what? expected link or node", verb)
	case f[1] == "link":
		e.Kind = KindFailLink
		if verb == "restore" {
			e.Kind = KindRestoreLink
		}
		if len(f) != 4 {
			return fmt.Errorf("usage: %s link A-B[,C-D] @T", verb)
		}
		var err error
		if e.Links, err = parseEdges(f[2]); err != nil {
			return err
		}
		e.At, err = parseAt(f[3])
		return err
	case f[1] != "node":
		return fmt.Errorf("unknown target %q after %q (expected link or node)", f[1], verb)
	case verb == "restore":
		return fmt.Errorf("use %q to bring a node back", "recover node")
	}
	e.Kind = KindFailNode
	if verb == "recover" {
		e.Kind = KindRecoverNode
	}
	if len(f) != 4 {
		return fmt.Errorf("usage: fail|recover node N @T")
	}
	n, err := strconv.ParseInt(f[2], 10, 32)
	if err != nil || n < 0 {
		return fmt.Errorf("bad node %q", f[2])
	}
	e.Node = topology.NodeID(n)
	e.At, err = parseAt(f[3])
	return err
}

// parseFlap handles "flap link A-B every D xN @T".
func parseFlap(e *Event, f []string) error {
	e.Kind = KindFlapLink
	if len(f) != 7 || f[1] != "link" {
		return fmt.Errorf("usage: flap link A-B every D xN @T")
	}
	var err error
	if e.Links, err = oneLink(f[2]); err != nil {
		return err
	}
	if f[3] != "every" {
		return fmt.Errorf("expected %q, got %q", "every", f[3])
	}
	if e.Period, err = time.ParseDuration(f[4]); err != nil {
		return fmt.Errorf("bad flap period %q", f[4])
	}
	n, ok := strings.CutPrefix(f[5], "x")
	if e.Cycles, err = strconv.Atoi(n); !ok || err != nil {
		return fmt.Errorf("bad cycle count %q (expected xN)", f[5])
	}
	e.At, err = parseAt(f[6])
	return err
}

// parseLoss handles "loss link A-B p=0.01 @T".
func parseLoss(e *Event, f []string) error {
	e.Kind = KindSetLoss
	if len(f) != 5 || f[1] != "link" {
		return fmt.Errorf("usage: loss link A-B p=P @T")
	}
	var err error
	if e.Links, err = oneLink(f[2]); err != nil {
		return err
	}
	val, ok := strings.CutPrefix(f[3], "p=")
	if !ok {
		return fmt.Errorf("bad loss probability %q (expected p=P)", f[3])
	}
	if e.Rate, err = strconv.ParseFloat(val, 64); err != nil {
		return fmt.Errorf("bad loss probability %q", f[3])
	}
	e.At, err = parseAt(f[4])
	return err
}

// parseChurn handles "churn links [A-B,C-D] rate=R/s [down=D] @T1..T2".
func parseChurn(e *Event, f []string) error {
	e.Kind = KindChurn
	if len(f) < 3 || f[1] != "links" {
		return fmt.Errorf("usage: churn links [A-B,C-D] rate=R/s [down=D] @T1..T2")
	}
	rest := f[2:]
	if !strings.ContainsRune(rest[0], '=') && !strings.HasPrefix(rest[0], "@") {
		var err error
		if e.Links, err = parseEdges(rest[0]); err != nil {
			return err
		}
		rest = rest[1:]
	}
	var haveRate, haveAt bool
	for _, tok := range rest {
		switch {
		case strings.HasPrefix(tok, "rate="):
			val := strings.TrimSuffix(strings.TrimPrefix(tok, "rate="), "/s")
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("bad churn rate %q (expected rate=R/s)", tok)
			}
			e.Rate, haveRate = r, true
		case strings.HasPrefix(tok, "down="):
			d, err := time.ParseDuration(strings.TrimPrefix(tok, "down="))
			if err != nil {
				return fmt.Errorf("bad churn downtime %q (expected down=D)", tok)
			}
			e.MeanDown = d
		case strings.HasPrefix(tok, "@"):
			lo, hi, ok := strings.Cut(tok[1:], "..")
			var err1, err2 error
			e.At, err1 = time.ParseDuration(lo)
			e.Until, err2 = time.ParseDuration(hi)
			if !ok || err1 != nil || err2 != nil {
				return fmt.Errorf("bad churn window %q (expected @T1..T2)", tok)
			}
			haveAt = true
		default:
			return fmt.Errorf("unknown churn parameter %q", tok)
		}
	}
	if !haveRate {
		return fmt.Errorf("churn needs rate=R/s")
	}
	if !haveAt {
		return fmt.Errorf("churn needs a window @T1..T2")
	}
	if e.MeanDown == 0 {
		e.MeanDown = time.Second
	}
	return nil
}

// parseFailPath handles "failpath @T [restore=D] [flaps=N]".
func parseFailPath(e *Event, f []string) error {
	e.Kind = KindFailPath
	haveAt := false
	for _, tok := range f[1:] {
		var err error
		switch {
		case strings.HasPrefix(tok, "@"):
			e.At, err = parseAt(tok)
			haveAt = true
		case strings.HasPrefix(tok, "restore="):
			if e.Restore, err = time.ParseDuration(strings.TrimPrefix(tok, "restore=")); err != nil {
				err = fmt.Errorf("bad restore %q (expected restore=D)", tok)
			}
		case strings.HasPrefix(tok, "flaps="):
			if e.Flaps, err = strconv.Atoi(strings.TrimPrefix(tok, "flaps=")); err != nil {
				err = fmt.Errorf("bad flaps %q (expected flaps=N)", tok)
			}
		default:
			err = fmt.Errorf("unknown failpath parameter %q", tok)
		}
		if err != nil {
			return err
		}
	}
	if !haveAt {
		return fmt.Errorf("failpath needs a time @T")
	}
	return nil
}

// parseAt parses a "@400s"-style event time.
func parseAt(tok string) (time.Duration, error) {
	val, ok := strings.CutPrefix(tok, "@")
	if !ok {
		return 0, fmt.Errorf("expected a time @T, got %q", tok)
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, fmt.Errorf("bad time %q", tok)
	}
	return d, nil
}

// oneLink parses the link of a single-link statement.
func oneLink(tok string) ([]topology.Edge, error) {
	links, err := parseEdges(tok)
	if err != nil || len(links) != 1 {
		return nil, fmt.Errorf("bad link %q", tok)
	}
	return links, nil
}

// parseEdges parses a comma-separated "A-B,C-D" link list.
func parseEdges(tok string) ([]topology.Edge, error) {
	parts := strings.Split(tok, ",")
	out := make([]topology.Edge, 0, len(parts))
	for _, part := range parts {
		lo, hi, ok := strings.Cut(part, "-")
		if !ok {
			return nil, fmt.Errorf("bad link %q (expected A-B)", part)
		}
		a, err1 := strconv.ParseInt(lo, 10, 32)
		bb, err2 := strconv.ParseInt(hi, 10, 32)
		if err1 != nil || err2 != nil || a < 0 || bb < 0 {
			return nil, fmt.Errorf("bad link %q (expected A-B)", part)
		}
		out = append(out, topology.NewEdge(topology.NodeID(a), topology.NodeID(bb)))
	}
	return out, nil
}
