package scenario

import (
	"fmt"
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
//	restore link 3-7 @410s
//	fail node 12 @400s
//	recover node 12 @430s
//	fail group 3-7,4-8 @400s
//	restore group 3-7,4-8 @410s
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
// sorted by event time (stable, like Builder.Script); Parse does not
// validate cross-event ordering or link existence — that is Script.Validate,
// which needs the horizon and topology.
func Parse(text string) (*Script, error) {
	b := NewBuilder()
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
		if err := parseStatement(b, fields); err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", stmtLine, err)
		}
	}
	return b.Script(), nil
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

// parseStatement dispatches one statement's whitespace-split fields.
func parseStatement(b *Builder, f []string) error {
	switch f[0] {
	case "fail":
		return parseFail(b, f, false)
	case "restore":
		return parseFail(b, f, true)
	case "recover":
		if len(f) < 2 || f[1] != "node" {
			return fmt.Errorf("expected %q after %q", "node", "recover")
		}
		node, at, err := nodeAndAt(f[2:])
		if err != nil {
			return err
		}
		b.RecoverNode(at, node)
		return nil
	case "flap":
		return parseFlap(b, f)
	case "loss":
		return parseLoss(b, f)
	case "costout", "costin":
		if len(f) != 4 || f[1] != "link" {
			return fmt.Errorf("usage: %s link A-B @T", f[0])
		}
		links, err := parseEdges(f[2])
		if err != nil || len(links) != 1 {
			return fmt.Errorf("bad link %q", f[2])
		}
		at, err := parseAt(f[3])
		if err != nil {
			return err
		}
		if f[0] == "costout" {
			b.CostOut(at, links[0].A, links[0].B)
		} else {
			b.CostIn(at, links[0].A, links[0].B)
		}
		return nil
	case "churn":
		return parseChurn(b, f)
	case "failpath":
		return parseFailPath(b, f)
	case "failrandom":
		if len(f) != 2 {
			return fmt.Errorf("usage: failrandom @T")
		}
		at, err := parseAt(f[1])
		if err != nil {
			return err
		}
		b.FailRandom(at)
		return nil
	default:
		return fmt.Errorf("unknown keyword %q", f[0])
	}
}

// parseFail handles "fail|restore link|group|node ... @T".
func parseFail(b *Builder, f []string, restore bool) error {
	verb := f[0]
	if len(f) < 2 {
		return fmt.Errorf("%s what? expected link, group, or node", verb)
	}
	switch f[1] {
	case "link", "group":
		if len(f) != 4 {
			return fmt.Errorf("usage: %s %s A-B[,C-D] @T", verb, f[1])
		}
		links, err := parseEdges(f[2])
		if err != nil {
			return err
		}
		if f[1] == "link" && len(links) != 1 {
			return fmt.Errorf("%s link takes one link (use %s group for several)", verb, verb)
		}
		at, err := parseAt(f[3])
		if err != nil {
			return err
		}
		switch {
		case restore && f[1] == "link":
			b.RestoreLink(at, links[0].A, links[0].B)
		case restore:
			b.RestoreGroup(at, links...)
		case f[1] == "link":
			b.FailLink(at, links[0].A, links[0].B)
		default:
			b.FailGroup(at, links...)
		}
		return nil
	case "node":
		if restore {
			return fmt.Errorf("use %q to bring a node back", "recover node")
		}
		node, at, err := nodeAndAt(f[2:])
		if err != nil {
			return err
		}
		b.FailNode(at, node)
		return nil
	default:
		return fmt.Errorf("unknown target %q after %q (expected link, group, or node)", f[1], verb)
	}
}

// parseFlap handles "flap link A-B every D xN @T".
func parseFlap(b *Builder, f []string) error {
	if len(f) != 7 || f[1] != "link" {
		return fmt.Errorf("usage: flap link A-B every D xN @T")
	}
	links, err := parseEdges(f[2])
	if err != nil || len(links) != 1 {
		return fmt.Errorf("bad link %q", f[2])
	}
	if f[3] != "every" {
		return fmt.Errorf("expected %q, got %q", "every", f[3])
	}
	period, err := time.ParseDuration(f[4])
	if err != nil {
		return fmt.Errorf("bad flap period %q", f[4])
	}
	if !strings.HasPrefix(f[5], "x") {
		return fmt.Errorf("bad cycle count %q (expected xN)", f[5])
	}
	cycles, err := strconv.Atoi(f[5][1:])
	if err != nil {
		return fmt.Errorf("bad cycle count %q (expected xN)", f[5])
	}
	at, err := parseAt(f[6])
	if err != nil {
		return err
	}
	b.FlapLink(at, links[0].A, links[0].B, period, cycles)
	return nil
}

// parseLoss handles "loss link A-B p=0.01 @T".
func parseLoss(b *Builder, f []string) error {
	if len(f) != 5 || f[1] != "link" {
		return fmt.Errorf("usage: loss link A-B p=P @T")
	}
	links, err := parseEdges(f[2])
	if err != nil || len(links) != 1 {
		return fmt.Errorf("bad link %q", f[2])
	}
	val, ok := strings.CutPrefix(f[3], "p=")
	if !ok {
		return fmt.Errorf("bad loss probability %q (expected p=P)", f[3])
	}
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad loss probability %q", f[3])
	}
	at, err := parseAt(f[4])
	if err != nil {
		return err
	}
	b.Loss(at, links[0].A, links[0].B, p)
	return nil
}

// parseChurn handles "churn links [A-B,C-D] rate=R/s [down=D] @T1..T2".
func parseChurn(b *Builder, f []string) error {
	if len(f) < 3 || f[1] != "links" {
		return fmt.Errorf("usage: churn links [A-B,C-D] rate=R/s [down=D] @T1..T2")
	}
	rest := f[2:]
	var links []topology.Edge
	if !strings.ContainsRune(rest[0], '=') && !strings.HasPrefix(rest[0], "@") {
		var err error
		if links, err = parseEdges(rest[0]); err != nil {
			return err
		}
		rest = rest[1:]
	}
	var (
		rate     float64
		haveRate bool
		meanDown time.Duration
		from, to time.Duration
		haveAt   bool
	)
	for _, tok := range rest {
		switch {
		case strings.HasPrefix(tok, "rate="):
			val := strings.TrimSuffix(strings.TrimPrefix(tok, "rate="), "/s")
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("bad churn rate %q (expected rate=R/s)", tok)
			}
			rate, haveRate = r, true
		case strings.HasPrefix(tok, "down="):
			d, err := time.ParseDuration(strings.TrimPrefix(tok, "down="))
			if err != nil {
				return fmt.Errorf("bad churn downtime %q (expected down=D)", tok)
			}
			meanDown = d
		case strings.HasPrefix(tok, "@"):
			lo, hi, ok := strings.Cut(tok[1:], "..")
			if !ok {
				return fmt.Errorf("bad churn window %q (expected @T1..T2)", tok)
			}
			var err1, err2 error
			from, err1 = time.ParseDuration(lo)
			to, err2 = time.ParseDuration(hi)
			if err1 != nil || err2 != nil {
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
	b.Churn(from, to, rate, meanDown, links...)
	return nil
}

// parseFailPath handles "failpath @T [restore=D] [flaps=N]".
func parseFailPath(b *Builder, f []string) error {
	var (
		at      time.Duration
		haveAt  bool
		restore time.Duration
		flaps   int
	)
	for _, tok := range f[1:] {
		switch {
		case strings.HasPrefix(tok, "@"):
			v, err := parseAt(tok)
			if err != nil {
				return err
			}
			at, haveAt = v, true
		case strings.HasPrefix(tok, "restore="):
			d, err := time.ParseDuration(strings.TrimPrefix(tok, "restore="))
			if err != nil {
				return fmt.Errorf("bad restore %q (expected restore=D)", tok)
			}
			restore = d
		case strings.HasPrefix(tok, "flaps="):
			n, err := strconv.Atoi(strings.TrimPrefix(tok, "flaps="))
			if err != nil {
				return fmt.Errorf("bad flaps %q (expected flaps=N)", tok)
			}
			flaps = n
		default:
			return fmt.Errorf("unknown failpath parameter %q", tok)
		}
	}
	if !haveAt {
		return fmt.Errorf("failpath needs a time @T")
	}
	b.FailPath(at, restore, flaps)
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

// nodeAndAt parses the "N @T" tail of the node statements.
func nodeAndAt(f []string) (topology.NodeID, time.Duration, error) {
	if len(f) != 2 {
		return 0, 0, fmt.Errorf("usage: fail|recover node N @T")
	}
	n, err := strconv.ParseInt(f[0], 10, 32)
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("bad node %q", f[0])
	}
	at, err := parseAt(f[1])
	if err != nil {
		return 0, 0, err
	}
	return topology.NodeID(n), at, nil
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
