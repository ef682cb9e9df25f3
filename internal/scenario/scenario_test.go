package scenario

import (
	"math"
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
		fail group 3-7,4-8 @400s
		restore group 3-7,4-8 @410s
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
// guesswork (the same contract topoio's spec parser keeps).
func TestParseDiagnostics(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring of the error
	}{
		{"explode link 3-7 @400s", `line 1: unknown keyword "explode"`},
		{"fail link 3-7 @400s\nfail widget 3 @9s", `line 2: unknown target "widget"`},
		{"fail link 3-7", "usage: fail link"},
		{"fail link 3x7 @400s", `bad link "3x7"`},
		{"fail link 3-7,4-8 @400s", "fail link takes one link (use fail group for several)"},
		{"fail link 3-7 400s", `expected a time @T, got "400s"`},
		{"fail link 3-7 @fourhundred", `bad time "@fourhundred"`},
		{"restore node 12 @400s", `use "recover node" to bring a node back`},
		{"fail node twelve @400s", `bad node "twelve"`},
		{"fail node 2147483648 @400s", `bad node "2147483648"`}, // NodeID is 32-bit
		{"fail link 0-4294967296 @400s", `bad link "0-4294967296"`},
		{"flap link 3-7 every 6s @400s", "usage: flap link A-B every D xN @T"},
		{"flap link 3-7 every 6s five @400s", `bad cycle count "five"`},
		{"loss link 1-2 0.01 @410s", `bad loss probability "0.01" (expected p=P)`},
		{"loss link 1-2 p=lots @410s", `bad loss probability "p=lots"`},
		{"churn links down=2s @450s..600s", "churn needs rate=R/s"},
		{"churn links rate=0.1/s", "churn needs a window @T1..T2"},
		{"churn links rate=0.1/s @450s", `bad churn window "@450s"`},
		{"churn links rate=0.1/s speed=9 @450s..600s", `unknown churn parameter "speed=9"`},
		{"failpath restore=3s", "failpath needs a time @T"},
		{"failpath @400s knobs=3", `unknown failpath parameter "knobs=3"`},
		{"failrandom @430s now", "usage: failrandom @T"},
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

func TestStringRoundTrip(t *testing.T) {
	orig := NewBuilder().
		FailLink(400*time.Second, 3, 7).
		RestoreLink(410*time.Second, 7, 3). // reversed endpoints canonicalize
		FailNode(400*time.Second, 12).
		RecoverNode(430*time.Second, 12).
		FailGroup(400*time.Second, edge(3, 7), edge(8, 4)).
		RestoreGroup(410*time.Second, edge(3, 7), edge(4, 8)).
		FlapLink(400*time.Second, 3, 7, 6*time.Second, 5).
		Loss(410*time.Second, 1, 2, 0.01).
		CostOut(400*time.Second, 3, 7).
		CostIn(500*time.Second, 3, 7).
		Churn(450*time.Second, 600*time.Second, 0.1, 2*time.Second).
		FailPath(400*time.Second, 3*time.Second, 5).
		FailRandom(430 * time.Second).
		Script()
	reparsed, err := Parse(orig.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", orig.String(), err)
	}
	if !reflect.DeepEqual(orig, reparsed) {
		t.Errorf("round trip changed the script:\n orig %s\n back %s", orig, reparsed)
	}
}

func TestBuilderSortsStable(t *testing.T) {
	s := NewBuilder().
		FailRandom(430*time.Second).
		FailLink(400*time.Second, 3, 7).
		Loss(400*time.Second, 1, 2, 0.5). // same instant: must stay after the fail
		Script()
	if s.Events[0].Kind != KindFailLink || s.Events[1].Kind != KindSetLoss || s.Events[2].Kind != KindFailRandom {
		t.Errorf("sorted order = %s", s)
	}
}

func TestValidate(t *testing.T) {
	g := topology.Torus(4, 4) // nodes 0..15, edge 0-1 exists
	horizon := 800 * time.Second
	ok := func(b *Builder) *Script { return b.Script() }
	cases := []struct {
		name   string
		script *Script
		want   string // "" = valid
	}{
		{"valid", ok(NewBuilder().FailLink(400*time.Second, 0, 1).RestoreLink(410*time.Second, 0, 1)), ""},
		{"negative time", ok(NewBuilder().FailLink(-time.Second, 0, 1)), "before the start"},
		{"past horizon", ok(NewBuilder().FailLink(900*time.Second, 0, 1)), "not before the 13m20s horizon"},
		{"unknown link", ok(NewBuilder().FailLink(400*time.Second, 0, 9)), "no link 0-9 in the topology"},
		{"unknown node", ok(NewBuilder().FailNode(400*time.Second, 99)), "node 99 outside the topology"},
		{"restore before fail", ok(NewBuilder().RestoreLink(410*time.Second, 0, 1)), "before any event fails it"},
		{"recover before fail", ok(NewBuilder().RecoverNode(410*time.Second, 3)), "before any event fails it"},
		{"costin before costout", ok(NewBuilder().CostIn(410*time.Second, 0, 1)), "before any event costs it out"},
		{"loss out of range", ok(NewBuilder().Loss(400*time.Second, 0, 1, 1.5)), "outside [0, 1]"},
		{"flap zero period", ok(NewBuilder().FlapLink(400*time.Second, 0, 1, 0, 5)), "period must be positive"},
		{"flap zero cycles", ok(NewBuilder().FlapLink(400*time.Second, 0, 1, time.Second, 0)), "at least one cycle"},
		{"churn empty window", ok(NewBuilder().Churn(450*time.Second, 450*time.Second, 0.1, 0)), "window @7m30s..7m30s is empty"},
		{"churn past horizon", ok(NewBuilder().Churn(450*time.Second, 900*time.Second, 0.1, 0)), "after the 13m20s horizon"},
		{"churn zero rate", ok(NewBuilder().Churn(450*time.Second, 600*time.Second, 0, 0)), "rate must be positive"},
		{"churn infinite rate", ok(NewBuilder().Churn(450*time.Second, 600*time.Second, math.Inf(1), 0)), "rate must be positive and finite"},
		{"churn NaN rate", ok(NewBuilder().Churn(450*time.Second, 600*time.Second, math.NaN(), 0)), "rate must be positive and finite"},
		{"loss NaN", ok(NewBuilder().Loss(400*time.Second, 0, 1, math.NaN())), "loss probability NaN outside [0, 1]"},
		{"loss infinite", ok(NewBuilder().Loss(400*time.Second, 0, 1, math.Inf(1))), "outside [0, 1]"},
		{"failpath flaps need restore", ok(NewBuilder().FailPath(400*time.Second, 0, 5)), "requires restore > 0"},
		{"out of order", &Script{Events: []Event{
			{At: 410 * time.Second, Kind: KindFailLink, Links: []topology.Edge{edge(0, 1)}},
			{At: 400 * time.Second, Kind: KindFailRandom},
		}}, "out of time order"},
		{"zero kind", &Script{Events: []Event{{At: time.Second}}}, "unknown event kind"},
	}
	for _, c := range cases {
		err := c.script.Validate(horizon, g)
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
	// Reference checks are deferred when the graph is unknown.
	deferred := NewBuilder().FailLink(400*time.Second, 0, 9).Script()
	if err := deferred.Validate(horizon, nil); err != nil {
		t.Errorf("nil-graph Validate rejected link refs: %v", err)
	}
}
