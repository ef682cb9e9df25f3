package routeconv

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastConfig compresses the schedule: fine for every protocol except
// slow-MRAI BGP.
func fastConfig(p ProtocolKind) Config {
	cfg := DefaultConfig()
	cfg.Protocol = p
	cfg.SenderStart = 190 * time.Second
	cfg.FailAt = 200 * time.Second
	cfg.End = 350 * time.Second
	cfg.Trials = 2
	return cfg
}

func TestPublicRun(t *testing.T) {
	res, err := Run(fastConfig(ProtoDBF))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio <= 0 || res.DeliveryRatio > 1 {
		t.Errorf("DeliveryRatio = %v", res.DeliveryRatio)
	}
	if len(res.Trials) != 2 {
		t.Errorf("trials = %d, want 2", len(res.Trials))
	}
}

func TestPublicRunContext(t *testing.T) {
	res, err := RunContext(context.Background(), fastConfig(ProtoDBF))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 2 {
		t.Errorf("trials = %d, want 2", len(res.Trials))
	}
	// A cancelled context aborts the experiment instead of finishing the
	// trial batch.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := fastConfig(ProtoDBF)
	cfg.Trials = 50
	if _, err := RunContext(ctx, cfg); err != context.Canceled {
		t.Errorf("cancelled RunContext returned %v, want context.Canceled", err)
	}
}

func TestPublicDefaultsMatchPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Rows != 7 || cfg.Cols != 7 {
		t.Errorf("mesh = %dx%d, want 7x7", cfg.Rows, cfg.Cols)
	}
	if cfg.SenderStart != 390*time.Second || cfg.FailAt != 400*time.Second || cfg.End != 800*time.Second {
		t.Errorf("schedule = %v/%v/%v, want 390s/400s/800s", cfg.SenderStart, cfg.FailAt, cfg.End)
	}
	if cfg.PacketInterval != 50*time.Millisecond {
		t.Errorf("PacketInterval = %v, want 50ms (20 pps)", cfg.PacketInterval)
	}
	if cfg.TTL != 127 {
		t.Errorf("TTL = %d, want 127", cfg.TTL)
	}
	if cfg.Net.QueueLimit != 20 {
		t.Errorf("QueueLimit = %d, want 20", cfg.Net.QueueLimit)
	}
	if cfg.Net.LinkDelay != time.Millisecond {
		t.Errorf("LinkDelay = %v, want 1ms", cfg.Net.LinkDelay)
	}
	if v := DefaultVectorConfig(); v.PeriodicInterval != 30*time.Second || v.Infinity != 16 {
		t.Errorf("vector defaults = %+v", v)
	}
	if bc := DefaultBGPConfig(); bc.MRAI != 30*time.Second {
		t.Errorf("BGP MRAI = %v, want 30s", bc.MRAI)
	}
	if bc := BGP3Config(); bc.MRAI != 3*time.Second {
		t.Errorf("BGP3 MRAI = %v, want 3s", bc.MRAI)
	}
}

func TestPublicSweep(t *testing.T) {
	sc := DefaultSweep(7)
	if sc.Base.Trials != 7 {
		t.Errorf("DefaultSweep trials = %d, want 7", sc.Base.Trials)
	}
	if len(sc.Degrees) != 14 || sc.Degrees[0] != 3 || sc.Degrees[13] != 16 {
		t.Errorf("DefaultSweep degrees = %v, want 3..16", sc.Degrees)
	}
	if len(sc.Protocols) != 4 {
		t.Errorf("DefaultSweep protocols = %v", sc.Protocols)
	}

	sc.Base = fastConfig(ProtoDBF)
	sc.Base.Trials = 1
	sc.Degrees = []int{4}
	sc.Protocols = []ProtocolKind{ProtoDBF}
	sr, err := RunSweep(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := sr.Figure3Table().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "degree,dbf_drops") {
		t.Errorf("figure 3 CSV header = %q", strings.SplitN(sb.String(), "\n", 2)[0])
	}
}

// TestRunSweepMatchesRun pins the facade to Run: every cell RunSweep
// returns is exactly Run of Base at that protocol and degree, whichever
// disturbance Base carries — none, a text scenario with fast reroute, or a
// builder script.
func TestRunSweepMatchesRun(t *testing.T) {
	plain := fastConfig(ProtoDBF)
	plain.Trials = 1
	text := plain
	text.FastReroute = true
	text.Scenario = "failpath @200s restore=3s flaps=2"
	built := plain
	built.Script = NewScenario().FailPath(200*time.Second, 0, 0).FailRandom(203 * time.Second).Script()

	for _, tc := range []struct {
		name string
		base Config
	}{{"default", plain}, {"text", text}, {"builder", built}} {
		t.Run(tc.name, func(t *testing.T) {
			sc := SweepConfig{Base: tc.base, Degrees: []int{4, 6}, Protocols: []ProtocolKind{ProtoDBF, ProtoBGP3}}
			var (
				mu       sync.Mutex
				progress []string
			)
			sr, err := RunSweep(sc, func(line string) {
				mu.Lock()
				defer mu.Unlock()
				progress = append(progress, line)
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range sc.Protocols {
				for _, d := range sc.Degrees {
					cfg := tc.base
					cfg.Protocol, cfg.Degree = p, d
					want, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := sr.Cells[p][d]
					if got == nil {
						t.Fatalf("%v degree %d: no cell", p, d)
					}
					// The facade hands the schedule to the sweep as text, so
					// the two resolved scripts are compared by their text.
					if g, w := got.Config.Script.String(), want.Config.Script.String(); g != w {
						t.Errorf("%v degree %d: schedule %q, want %q", p, d, g, w)
					}
					// The rest is compared as printed: %v renders a float
					// exactly (shortest round-trip form), and the delay
					// series' NaN bins match where reflect.DeepEqual's
					// NaN != NaN would not.
					g, w := *got, *want
					g.Config.Script, w.Config.Script = nil, nil
					if gs, ws := fmt.Sprintf("%+v", g), fmt.Sprintf("%+v", w); gs != ws {
						t.Errorf("%v degree %d: RunSweep's cell differs from Run:\n got %s\nwant %s", p, d, gs, ws)
					}
					id := fmt.Sprintf("%v/d%d/", p, d)
					if !slices.ContainsFunc(progress, func(line string) bool { return strings.HasPrefix(line, id) }) {
						t.Errorf("no progress line for cell %s in %q", id, progress)
					}
				}
			}
		})
	}
}

func TestPublicProtocolsAndDamping(t *testing.T) {
	if got := Protocols(); len(got) != 4 || got[0] != ProtoRIP || got[3] != ProtoBGP3 {
		t.Errorf("Protocols() = %v", got)
	}
	d := DefaultDampingConfig()
	if d.SuppressThreshold != 2000 || d.ReuseThreshold != 750 || d.HalfLife != 15*time.Minute {
		t.Errorf("DefaultDampingConfig = %+v", d)
	}
}

func TestPublicParseProtocol(t *testing.T) {
	for _, name := range []string{"rip", "dbf", "bgp", "bgp3", "ls"} {
		if _, err := ParseProtocol(name); err != nil {
			t.Errorf("ParseProtocol(%q): %v", name, err)
		}
	}
}

// TestObservation1 verifies the paper's Observation 1 end to end through
// the public API: drops decrease with node degree and virtually disappear
// at degree 6 for the alternate-path protocols, while RIP barely improves.
func TestObservation1(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell experiment")
	}
	run := func(p ProtocolKind, degree int) float64 {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.Degree = degree
		cfg.Trials = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanNoRouteDrops
	}
	dbf3, dbf6 := run(ProtoDBF, 3), run(ProtoDBF, 6)
	if dbf6 > 2 {
		t.Errorf("DBF drops at degree 6 = %.1f, want ≈ 0", dbf6)
	}
	if dbf3 <= dbf6 {
		t.Errorf("DBF drops should fall with degree: %.1f (deg 3) vs %.1f (deg 6)", dbf3, dbf6)
	}
	rip6 := run(ProtoRIP, 6)
	if rip6 < 50 {
		t.Errorf("RIP drops at degree 6 = %.1f, want still large (no alternate paths)", rip6)
	}
}
