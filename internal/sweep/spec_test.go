package sweep

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"routeconv/internal/core"
)

func TestParseSpecJSON(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "grid",
		"protocols": ["rip", "dbf"],
		"degrees": [3, 4],
		"trials": 5,
		"seed": 7,
		"end": "500s",
		"failures": [
			{"name": "single"},
			{"name": "flap", "scenario": "failpath @400s restore=3s flaps=5"},
			{"name": "multi", "scenario": "failpath @400s; failrandom @405s; failrandom @410s"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "grid" || spec.Trials != 5 || spec.Seed != 7 {
		t.Errorf("spec scalars wrong: %+v", spec)
	}
	if time.Duration(spec.End) != 500*time.Second {
		t.Errorf("End = %v", time.Duration(spec.End))
	}
	if len(spec.Failures) != 3 {
		t.Fatalf("failures = %d", len(spec.Failures))
	}
	if s := spec.Failures[1].Scenario; s != "failpath @400s restore=3s flaps=5" {
		t.Errorf("scenario = %q", s)
	}
	var d Duration
	if err := d.UnmarshalJSON([]byte("410000000000")); err != nil || time.Duration(d) != 410*time.Second {
		t.Errorf("numeric duration = %v, %v", time.Duration(d), err)
	}

	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*3 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	// The grid overrides land in each resolved config.
	c := cells[0]
	if c.Config.Trials != 5 || c.Config.Seed != 7 || c.Config.End != 500*time.Second {
		t.Errorf("cell config not resolved: %+v", c.Config)
	}
	if c.ID() != "rip/d3/single" {
		t.Errorf("cell ID = %s", c.ID())
	}
}

func TestExpandToposAxis(t *testing.T) {
	spec := Spec{
		Protocols: []string{"rip", "ls"},
		Degrees:   []int{4},
		Topos:     []string{"ba:n=64,m=2,seed=1", "fattree:k=4"},
		Trials:    2,
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Per protocol: one degree cell then two topo cells.
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	if cells[0].ID() != "rip/d4/single" {
		t.Errorf("cell 0 ID = %s", cells[0].ID())
	}
	if cells[1].ID() != "rip/ba:n=64,m=2,seed=1/single" {
		t.Errorf("cell 1 ID = %s", cells[1].ID())
	}
	if cells[2].Topo != "fattree:k=4" || cells[2].Config.Topo != "fattree:k=4" {
		t.Errorf("cell 2 topo not threaded: %+v", cells[2])
	}
	// Keys are distinct across the whole plan.
	seen := make(map[string]bool)
	for _, c := range cells {
		if seen[c.Key] {
			t.Errorf("duplicate key for %s", c.ID())
		}
		seen[c.Key] = true
	}
	// Topo-only specs are valid.
	only := Spec{Protocols: []string{"ls"}, Topos: []string{"ring:n=16"}, Trials: 1}
	cells, err = only.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Degree != 0 {
		t.Fatalf("topo-only expansion: %+v", cells)
	}
	// A bad spec fails expansion with a located error.
	bad := Spec{Protocols: []string{"ls"}, Topos: []string{"nonesuch:n=4"}, Trials: 1}
	if _, err := bad.Expand(); err == nil {
		t.Error("bad topo spec expanded")
	}
}

func TestExpandFlowsAxis(t *testing.T) {
	spec := Spec{
		Protocols: []string{"rip"},
		Degrees:   []int{4},
		Flows:     []int{1, 1000},
		Mode:      "hybrid",
		Trials:    1,
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	if cells[0].ID() != "rip/d4/single/f1" || cells[1].ID() != "rip/d4/single/f1000" {
		t.Errorf("cell IDs = %s, %s", cells[0].ID(), cells[1].ID())
	}
	if cells[1].Config.Flows != 1000 || cells[1].Config.Mode != core.ModeHybrid {
		t.Errorf("flows/mode not threaded into the config: %+v", cells[1].Config)
	}
	if cells[0].Key == cells[1].Key {
		t.Error("flow counts did not change the cache key")
	}
	// Mode alone (no Flows axis) also reaches the config and the key.
	packet := Spec{Protocols: []string{"rip"}, Degrees: []int{4}, Trials: 1}
	pc, err := packet.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if pc[0].ID() != "rip/d4/single" {
		t.Errorf("inherited-flows cell ID = %s, want no /fN suffix", pc[0].ID())
	}
	if pc[0].Key == cells[0].Key {
		t.Error("mode did not change the cache key")
	}
	// A bad mode fails expansion.
	bad := Spec{Protocols: []string{"rip"}, Degrees: []int{4}, Trials: 1, Mode: "nonesuch"}
	if _, err := bad.Expand(); err == nil {
		t.Error("bad mode expanded")
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"protocols":["rip"],"degrees":[3],"trials":1,"bogus":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// The failure knobs a scenario script replaced are unknown fields too,
	// and so are fast reroute, which the base config carries, and the
	// second failure axis, a list of bare scripts.
	for _, knob := range []string{`"restore_after":"3s"`, `"flaps":5`, `"extra_fail_ats":["405s"]`, `"fast_reroute":true`} {
		spec := `{"protocols":["rip"],"degrees":[3],"trials":1,"failures":[{"name":"f",` + knob + `}]}`
		if _, err := ParseSpec([]byte(spec)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err = %v, want an unknown-field error", knob, err)
		}
	}
	spec := `{"protocols":["rip"],"degrees":[3],"trials":1,"scenarios":["failpath @400s"]}`
	if _, err := ParseSpec([]byte(spec)); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("scenarios: err = %v, want an unknown-field error", err)
	}
}

func TestExpandValidates(t *testing.T) {
	for _, spec := range []Spec{
		{Degrees: []int{3}, Trials: 1},                                                          // no protocols
		{Protocols: []string{"rip"}, Trials: 1},                                                 // no degrees
		{Protocols: []string{"nonesuch"}, Degrees: []int{3}, Trials: 1},                         // bad protocol
		{Protocols: []string{"rip"}, Degrees: []int{3}, Trials: 1, Failures: []FailureMode{{}}}, // unnamed failure
		{Protocols: []string{"rip"}, Degrees: []int{3}, Trials: 1, Failures: []FailureMode{{Name: "f", Scenario: "failpath @400s flaps=3"}}}, // flaps without restore
	} {
		if _, err := spec.Expand(); err == nil {
			t.Errorf("Expand(%+v) succeeded, want error", spec)
		}
	}
}

// TestCellKeysGolden pins the content-addressed keys: the same spec must
// produce the same cell keys across runs and across processes. If this
// test fails because core.Config gained a field or the canonical encoding
// changed, bump the expectation — that key change is exactly what
// invalidates stale caches.
func TestCellKeysGolden(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Protocol = core.ProtoDBF
	cfg.Degree = 4
	cfg.Trials = 2
	key, err := CellKeyAt(&cfg, "golden-v1")
	if err != nil {
		t.Fatal(err)
	}
	// Updated when core.Config gained the Topo spec field, the
	// Mode/GuardWindow fields, and the Scenario/Script fields; and once
	// more when Config lost its RestoreAfter/Flaps/ExtraFailAts failure
	// knobs and a default config began to carry its resolved
	// "failpath @FailAt" script; and once more when the Script field went
	// and the resolved schedule became the canonical Scenario text.
	const want = "9b26c48cf89bb2fbe1f65244932a125b4d28bc1cd197b9a60df7875d3a5468e2"
	if key != want {
		t.Errorf("golden dbf key changed:\n got %s\nwant %s\n(an intentional Config or encoding change must update this golden)", key, want)
	}
	cfg.Protocol = core.ProtoRIP
	key2, err := CellKeyAt(&cfg, "golden-v1")
	if err != nil {
		t.Fatal(err)
	}
	const wantRIP = "332f1012bdc0a1e52a63a2061e998e46433c5dac99f7457cd5972fdbffc02a68"
	if key2 != wantRIP {
		t.Errorf("golden rip key changed:\n got %s\nwant %s", key2, wantRIP)
	}
	// The default schedule is "failpath @FailAt": spelling it out, in any
	// duration form, is the same experiment and the same key.
	for _, explicit := range []string{"failpath @400s", "failpath @6m40s # the paper's failure"} {
		same := cfg
		same.Scenario = explicit
		if k, err := CellKeyAt(&same, "golden-v1"); err != nil || k != wantRIP {
			t.Errorf("%q key = %s, %v; want the default's %s", explicit, k, err, wantRIP)
		}
	}
	// Version participates in the key: a new module version invalidates.
	key3, err := CellKeyAt(&cfg, "golden-v2")
	if err != nil {
		t.Fatal(err)
	}
	if key3 == key2 {
		t.Error("version change did not change the key")
	}
}

func TestExpandKeysDeterministic(t *testing.T) {
	spec := Spec{Protocols: []string{"rip", "dbf", "bgp3"}, Degrees: []int{3, 4, 5}, Trials: 3}
	a, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 9 {
		t.Fatalf("plan sizes %d, %d", len(a), len(b))
	}
	seen := make(map[string]bool)
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Errorf("cell %s key differs across expansions", a[i].ID())
		}
		if seen[a[i].Key] {
			t.Errorf("duplicate key for %s", a[i].ID())
		}
		seen[a[i].Key] = true
	}
}

func TestParseDegrees(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"3-6", []int{3, 4, 5, 6}, false},
		{"4", []int{4}, false},
		{"3,5,8", []int{3, 5, 8}, false},
		{"3-5,8", []int{3, 4, 5, 8}, false},
		{" 3 , 4 ", []int{3, 4}, false},
		{"", nil, true},
		{"6-3", nil, true},
		{"abc", nil, true},
		{"3-x", nil, true},
	}
	for _, c := range cases {
		got, err := ParseDegrees(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseDegrees(%q) = %v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDegrees(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseDegrees(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
