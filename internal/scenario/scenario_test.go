package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"routeconv/internal/topology"
)

func edge(a, b topology.NodeID) topology.Edge { return topology.NewEdge(a, b) }

func TestParseFullGrammar(t *testing.T) {
	script, err := Parse(`
		# every statement form once
		fail link 3-7 @400s
		restore link 3-7 @410s
		fail node 12 @400s; recover node 12 @430s
		fail link 3-7,4-8 @400s
		restore link 3-7,4-8 @410s
		flap link 3-7 every 6s x5 @400s
		loss link 1-2 p=0.01 @410s
		costout link 3-7 @400s
		costin link 3-7 @500s
		churn links rate=0.1/s down=2s @450s..600s
		churn links 3-7,4-8 rate=0.5/s @450s..600s
		failpath @400s restore=3s flaps=5
		failrandom @430s
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Events) != 14 {
		t.Fatalf("parsed %d events, want 14", len(script.Events))
	}
	// The script comes out time-sorted with same-instant statements in
	// input order.
	var prev time.Duration
	for i, e := range script.Events {
		if e.At < prev {
			t.Errorf("event %d (%s) out of order", i, e)
		}
		prev = e.At
	}
	first := script.Events[0]
	if first.Kind != KindFailLink || first.Links[0] != edge(3, 7) || first.At != 400*time.Second {
		t.Errorf("first event = %+v", first)
	}
	// Churn defaults: mean downtime 1s when down= is absent.
	for _, e := range script.Events {
		if e.Kind == KindChurn && e.Rate == 0.5 {
			if e.MeanDown != time.Second {
				t.Errorf("churn default MeanDown = %v, want 1s", e.MeanDown)
			}
			if len(e.Links) != 2 {
				t.Errorf("churn candidate set = %v", e.Links)
			}
		}
	}
}

// TestParseDiagnostics pins the malformed-input errors: each names the line
// and the offending token, so a user can fix a long script without
// guesswork (the same contract topoio's spec parser keeps). The cases
// reach every error return of the parser.
func TestParseDiagnostics(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring of the error
	}{
		{"explode link 3-7 @400s", `line 1: unknown keyword "explode"`},
		{"fail link 3-7 @400s\nfail widget 3 @9s", `line 2: unknown target "widget"`},
		{"fail group 3-7,4-8 @400s", `unknown target "group" after "fail"`},
		{"fail", "fail what? expected link or node"},
		{"fail link 3-7", "usage: fail link"},
		{"restore link 3-7,4-8", "usage: restore link A-B[,C-D] @T"},
		{"fail link 3x7 @400s", `bad link "3x7"`},
		{"fail link 3-7,4 @400s", `bad link "4" (expected A-B)`},
		{"fail link 3-7 400s", `expected a time @T, got "400s"`},
		{"fail link 3-7 @fourhundred", `bad time "@fourhundred"`},
		{"restore node 12 @400s", `use "recover node" to bring a node back`},
		{"recover", `expected "node" after "recover"`},
		{"recover link 3-7 @400s", `expected "node" after "recover"`},
		{"recover node 12", "usage: fail|recover node N @T"},
		{"fail node twelve @400s", `bad node "twelve"`},
		{"fail node 2147483648 @400s", `bad node "2147483648"`}, // NodeID is 32-bit
		{"fail node 12 @soon", `bad time "@soon"`},
		{"fail link 0-4294967296 @400s", `bad link "0-4294967296"`},
		{"flap link 3-7 every 6s @400s", "usage: flap link A-B every D xN @T"},
		{"flap link 3-7,4-8 every 6s x5 @400s", `bad link "3-7,4-8"`},
		{"flap link 3-7 each 6s x5 @400s", `expected "every", got "each"`},
		{"flap link 3-7 every often x5 @400s", `bad flap period "often"`},
		{"flap link 3-7 every 6s five @400s", `bad cycle count "five"`},
		{"flap link 3-7 every 6s 5 @400s", `bad cycle count "5" (expected xN)`},
		{"flap link 3-7 every 6s x5 @later", `bad time "@later"`},
		{"loss link 1-2 p=0.01", "usage: loss link A-B p=P @T"},
		{"loss link 1x2 p=0.01 @410s", `bad link "1x2"`},
		{"loss link 1-2 0.01 @410s", `bad loss probability "0.01" (expected p=P)`},
		{"loss link 1-2 p=lots @410s", `bad loss probability "p=lots"`},
		{"loss link 1-2 p=0.01 410s", `expected a time @T, got "410s"`},
		{"costout link 3-7", "usage: costout link A-B @T"},
		{"costin link 3-7,4-8 @500s", `bad link "3-7,4-8"`},
		{"costin link 3-7 @never", `bad time "@never"`},
		{"churn nodes rate=0.1/s @450s..600s", "usage: churn links [A-B,C-D] rate=R/s [down=D] @T1..T2"},
		{"churn links 3x7 rate=0.1/s @450s..600s", `bad link "3x7"`},
		{"churn links rate=fast/s @450s..600s", `bad churn rate "rate=fast/s"`},
		{"churn links rate=0.1/s down=long @450s..600s", `bad churn downtime "down=long"`},
		{"churn links down=2s @450s..600s", "churn needs rate=R/s"},
		{"churn links rate=0.1/s", "churn needs a window @T1..T2"},
		{"churn links rate=0.1/s @450s", `bad churn window "@450s"`},
		{"churn links rate=0.1/s speed=9 @450s..600s", `unknown churn parameter "speed=9"`},
		{"failpath restore=3s", "failpath needs a time @T"},
		{"failpath @now", `bad time "@now"`},
		{"failpath @400s restore=soon", `bad restore "restore=soon" (expected restore=D)`},
		{"failpath @400s flaps=many", `bad flaps "flaps=many" (expected flaps=N)`},
		{"failpath @400s knobs=3", `unknown failpath parameter "knobs=3"`},
		{"failrandom @430s now", "usage: failrandom @T"},
		{"failrandom @whenever", `bad time "@whenever"`},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %q, want substring %q", c.in, err, c.want)
		}
		if !strings.HasPrefix(err.Error(), "scenario: line ") {
			t.Errorf("Parse(%q) error %q does not lead with the line number", c.in, err)
		}
	}
}

// TestParseLineNumbers checks that multi-line scripts with comments and
// blank lines report errors on the right line.
func TestParseLineNumbers(t *testing.T) {
	_, err := Parse("# comment\n\nfail link 3-7 @400s\nbogus statement\n")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error = %v, want line 4", err)
	}
}

// mustParse parses a script the test knows to be well formed.
func mustParse(t *testing.T, text string) *Script {
	t.Helper()
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStringRoundTrip(t *testing.T) {
	orig := mustParse(t, `
		fail link 3-7 @400s
		restore link 7-3 @410s
		fail node 12 @400s; recover node 12 @430s
		fail link 3-7,8-4 @400s; restore link 3-7,4-8 @410s
		flap link 3-7 every 6s x5 @400s
		loss link 1-2 p=0.01 @410s
		costout link 3-7 @400s; costin link 3-7 @500s
		churn links rate=0.1/s down=2s @450s..600s
		failpath @400s restore=3s flaps=5
		failrandom @430s`)
	// Reversed endpoints canonicalize.
	if got := orig.Events[0].String(); got != "fail link 3-7 @6m40s" {
		t.Errorf("first event renders as %q", got)
	}
	if got := orig.Events[6].String(); got != "restore link 3-7 @6m50s" {
		t.Errorf("reversed restore renders as %q", got)
	}
	reparsed, err := Parse(orig.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", orig.String(), err)
	}
	if !reflect.DeepEqual(orig, reparsed) {
		t.Errorf("round trip changed the script:\n orig %s\n back %s", orig, reparsed)
	}
}

func TestParseSortsStable(t *testing.T) {
	// Same instant: the loss must stay after the fail.
	s := mustParse(t, "failrandom @430s; fail link 3-7 @400s; loss link 1-2 p=0.5 @400s")
	if s.Events[0].Kind != KindFailLink || s.Events[1].Kind != KindSetLoss || s.Events[2].Kind != KindFailRandom {
		t.Errorf("sorted order = %s", s)
	}
}

func TestValidate(t *testing.T) {
	g := topology.Torus(4, 4) // nodes 0..15, edge 0-1 exists
	horizon := 800 * time.Second
	cases := []struct {
		name   string
		script string
		want   string // "" = valid
	}{
		{"valid", "fail link 0-1 @400s; restore link 0-1 @410s", ""},
		{"valid group", "fail link 0-1,1-2 @400s; restore link 1-2 @410s; restore link 0-1 @420s", ""},
		{"negative time", "fail link 0-1 @-1s", "before the start"},
		{"past horizon", "fail link 0-1 @900s", "not before the 13m20s horizon"},
		{"unknown link", "fail link 0-9 @400s", "no link 0-9 in the topology"},
		{"unknown group member", "fail link 0-1,0-9 @400s", "no link 0-9 in the topology"},
		{"unknown node", "fail node 99 @400s", "node 99 outside the topology"},
		{"restore before fail", "restore link 0-1 @410s", "before any event fails it"},
		{"restore group member before fail", "fail link 0-1 @400s; restore link 0-1,1-2 @410s", "restores link 1-2 before any event fails it"},
		{"recover before fail", "recover node 3 @410s", "before any event fails it"},
		{"costin before costout", "costin link 0-1 @410s", "before any event costs it out"},
		{"loss out of range", "loss link 0-1 p=1.5 @400s", "outside [0, 1]"},
		{"flap zero period", "flap link 0-1 every 0s x5 @400s", "period must be positive"},
		{"flap zero cycles", "flap link 0-1 every 1s x0 @400s", "at least one cycle"},
		{"churn empty window", "churn links rate=0.1/s @450s..450s", "window @7m30s..7m30s is empty"},
		{"churn past horizon", "churn links rate=0.1/s @450s..900s", "after the 13m20s horizon"},
		{"churn zero rate", "churn links rate=0/s @450s..600s", "rate must be positive"},
		{"churn infinite rate", "churn links rate=inf/s @450s..600s", "rate must be positive and finite"},
		{"churn NaN rate", "churn links rate=NaN/s @450s..600s", "rate must be positive and finite"},
		{"churn negative downtime", "churn links rate=0.1/s down=-1s @450s..600s", "mean downtime must not be negative"},
		{"loss NaN", "loss link 0-1 p=NaN @400s", "loss probability NaN outside [0, 1]"},
		{"loss infinite", "loss link 0-1 p=inf @400s", "outside [0, 1]"},
		{"failpath flaps need restore", "failpath @400s flaps=5", "requires restore > 0"},
		{"failpath negative restore", "failpath @400s restore=-1s", "restore must not be negative"},
	}
	for _, c := range cases {
		err := mustParse(t, c.script).Validate(horizon, g)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate succeeded, want %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want substring %q", c.name, err, c.want)
		}
		if !strings.Contains(err.Error(), "event ") {
			t.Errorf("%s: error %q does not name the event", c.name, err)
		}
	}
	// Scripts that Parse cannot produce: events out of time order, and an
	// uninitialized event.
	for want, script := range map[string]*Script{
		"out of time order": {Events: []Event{
			{At: 410 * time.Second, Kind: KindFailLink, Links: []topology.Edge{edge(0, 1)}},
			{At: 400 * time.Second, Kind: KindFailRandom},
		}},
		"unknown event kind": {Events: []Event{{At: time.Second}}},
	} {
		if err := script.Validate(horizon, g); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate(%s) = %v, want %q", script, err, want)
		}
	}
	// Reference checks are deferred when the graph is unknown.
	if err := mustParse(t, "fail link 0-9 @400s").Validate(horizon, nil); err != nil {
		t.Errorf("nil-graph Validate rejected link refs: %v", err)
	}
	// Only a script that names a link or a node has references to check.
	for script, want := range map[string]bool{
		"loss link 0-1 p=0.5 @400s":        true,
		"recover node 3 @410s":             true,
		"failpath @400s; failrandom @410s": false,
	} {
		if got := mustParse(t, script).NamesTopology(); got != want {
			t.Errorf("NamesTopology(%q) = %v, want %v", script, got, want)
		}
	}
}

// The anchor is the first event that takes a link or a node down, of any
// of the six failing kinds; a loss, cost-in or restore before it does not
// count. A script that fails nothing anchors at its first cost-out, and one
// that does neither at the caller's fallback.
func TestAnchor(t *testing.T) {
	for _, tc := range []struct {
		script string
		at     time.Duration
	}{
		{"failpath @400s", 400 * time.Second},
		{"loss link 1-2 p=0.1 @100s; fail link 3-7 @420s", 420 * time.Second},
		{"fail node 12 @430s", 430 * time.Second},
		{"failrandom @440s", 440 * time.Second},
		{"flap link 3-7 every 4s x2 @450s", 450 * time.Second},
		{"churn links rate=1/s @460s..500s", 460 * time.Second},
		{"costout link 3-7 @100s; costin link 3-7 @200s; fail link 1-2 @300s", 300 * time.Second},
		{"costout link 3-7 @100s; costout link 1-2 @200s", 100 * time.Second},
		{"loss link 1-2 p=0.1 @100s", -time.Second},
		{"# nothing", -time.Second},
	} {
		sc, err := Parse(tc.script)
		if err != nil {
			t.Fatal(err)
		}
		if at := sc.Anchor(-time.Second); at != tc.at {
			t.Errorf("%q: Anchor = %v, want %v", tc.script, at, tc.at)
		}
	}
}
