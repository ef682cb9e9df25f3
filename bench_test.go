package routeconv

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/sweep"
	"routeconv/internal/topology"
)

// benchConfig returns the paper's experiment shortened to a 100 s
// post-failure window: every protocol's convergence dynamics complete well
// inside it, and the benches stay fast.
func benchConfig(proto ProtocolKind, degree int) Config {
	cfg := DefaultConfig()
	cfg.Protocol = proto
	cfg.Degree = degree
	cfg.Trials = 1
	cfg.End = cfg.FailAt + 100*time.Second
	return cfg
}

// runTrialBench runs one-trial experiments with varying seeds and returns
// the per-trial Result each iteration to the metric function.
func runTrialBench(b *testing.B, cfg Config, metrics func(*Result) map[string]float64) {
	b.Helper()
	totals := make(map[string]float64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for k, v := range metrics(res) {
			totals[k] += v
		}
	}
	for k, v := range totals {
		b.ReportMetric(v/float64(b.N), k)
	}
}

// BenchmarkFigure3 regenerates Figure 3's quantity — mean packet drops due
// to no route — for each protocol and node degree. The paper's shape: RIP
// stays high at every degree; DBF/BGP/BGP3 fall to ≈0 by degree 6.
func BenchmarkFigure3(b *testing.B) {
	for _, proto := range core.Protocols() {
		for _, degree := range []int{3, 4, 5, 6, 8} {
			b.Run(fmt.Sprintf("%s/degree%d", proto, degree), func(b *testing.B) {
				runTrialBench(b, benchConfig(proto, degree), func(r *Result) map[string]float64 {
					return map[string]float64{"drops-noroute": r.MeanNoRouteDrops}
				})
			})
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4's quantity — TTL expirations from
// transient loops. The paper's shape: RIP none; BGP ≈ 10× BGP3; worst at
// degree 5; none at degree ≥ 6.
func BenchmarkFigure4(b *testing.B) {
	for _, proto := range core.Protocols() {
		for _, degree := range []int{4, 5, 6} {
			b.Run(fmt.Sprintf("%s/degree%d", proto, degree), func(b *testing.B) {
				runTrialBench(b, benchConfig(proto, degree), func(r *Result) map[string]float64 {
					return map[string]float64{"ttl-expirations": r.MeanTTLDrops}
				})
			})
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5's quantity — instantaneous
// throughput around the failure — summarized as the seconds until the flow
// is back above 90% of its 20 pps rate. The paper's shape: RIP ≈ the 30 s
// periodic interval; BGP ≈ the 30 s MRAI; DBF/BGP3 within the ≤5 s damping.
func BenchmarkFigure5(b *testing.B) {
	for _, proto := range core.Protocols() {
		for _, degree := range []int{3, 4, 6} {
			b.Run(fmt.Sprintf("%s/degree%d", proto, degree), func(b *testing.B) {
				cfg := benchConfig(proto, degree)
				failBin := int((cfg.FailAt - cfg.SenderStart) / time.Second)
				runTrialBench(b, cfg, func(r *Result) map[string]float64 {
					recovery := float64(len(r.MeanThroughput) - failBin)
					for t := failBin + 1; t < len(r.MeanThroughput); t++ {
						if r.MeanThroughput[t] >= 18 {
							recovery = float64(t - failBin)
							break
						}
					}
					return map[string]float64{"recovery-s": recovery}
				})
			})
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 — forwarding path convergence time
// (a) and network routing convergence time (b). The paper's Observation 4:
// BGP3's are far shorter than BGP's even where their drop counts match.
func BenchmarkFigure6(b *testing.B) {
	for _, proto := range core.Protocols() {
		for _, degree := range []int{4, 6, 8} {
			b.Run(fmt.Sprintf("%s/degree%d", proto, degree), func(b *testing.B) {
				runTrialBench(b, benchConfig(proto, degree), func(r *Result) map[string]float64 {
					return map[string]float64{
						"fwd-conv-s":     r.MeanFwdConv,
						"routing-conv-s": r.MeanRoutingConv,
					}
				})
			})
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7's quantity — instantaneous packet
// delay — summarized as the worst per-second mean delay after the failure
// relative to steady state. The paper's Observation 5: extra delay during
// convergence, worst where packets escape loops (degree 5).
func BenchmarkFigure7(b *testing.B) {
	for _, proto := range core.Protocols() {
		for _, degree := range []int{4, 5, 6} {
			b.Run(fmt.Sprintf("%s/degree%d", proto, degree), func(b *testing.B) {
				cfg := benchConfig(proto, degree)
				failBin := int((cfg.FailAt - cfg.SenderStart) / time.Second)
				runTrialBench(b, cfg, func(r *Result) map[string]float64 {
					steady, worst := 0.0, 0.0
					n := 0
					for t := 0; t < failBin && t < len(r.MeanDelay); t++ {
						if d := r.MeanDelay[t]; d == d {
							steady += d
							n++
						}
					}
					if n > 0 {
						steady /= float64(n)
					}
					for t := failBin; t < len(r.MeanDelay); t++ {
						if d := r.MeanDelay[t]; d == d && d > worst {
							worst = d
						}
					}
					return map[string]float64{
						"worst-delay-ms":  worst * 1000,
						"steady-delay-ms": steady * 1000,
					}
				})
			})
		}
	}
}

// BenchmarkAblationMRAIGranularity tests the paper's §5.2 conjecture: with
// the MRAI timer per (neighbor, destination) instead of per neighbor, the
// transient-loop results "could have been different".
func BenchmarkAblationMRAIGranularity(b *testing.B) {
	for _, perDest := range []bool{false, true} {
		name := "per-neighbor"
		if perDest {
			name = "per-destination"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(ProtoBGP, 5)
			cfg.BGP.PerDestMRAI = perDest
			runTrialBench(b, cfg, func(r *Result) map[string]float64 {
				return map[string]float64{
					"ttl-expirations": r.MeanTTLDrops,
					"fwd-conv-s":      r.MeanFwdConv,
				}
			})
		})
	}
}

// BenchmarkAblationMRAISweep varies the MRAI value (Griffin & Premore's
// experiment, cited as [7]): convergence time tracks the MRAI.
func BenchmarkAblationMRAISweep(b *testing.B) {
	for _, mrai := range []time.Duration{time.Second, 3 * time.Second, 10 * time.Second, 30 * time.Second} {
		b.Run(mrai.String(), func(b *testing.B) {
			cfg := benchConfig(ProtoBGP, 5)
			cfg.BGP.MRAI = mrai
			cfg.BGP.MRAIJitter = mrai / 4
			runTrialBench(b, cfg, func(r *Result) map[string]float64 {
				return map[string]float64{
					"fwd-conv-s":      r.MeanFwdConv,
					"ttl-expirations": r.MeanTTLDrops,
				}
			})
		})
	}
}

// BenchmarkAblationPoisonReverse removes split horizon with poisoned
// reverse from DBF (§4.2): two-hop loops become possible.
func BenchmarkAblationPoisonReverse(b *testing.B) {
	for _, poison := range []bool{true, false} {
		name := "with-poison"
		if !poison {
			name = "without-poison"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(ProtoDBF, 4)
			cfg.Vector.PoisonReverse = poison
			runTrialBench(b, cfg, func(r *Result) map[string]float64 {
				return map[string]float64{
					"ttl-expirations": r.MeanTTLDrops,
					"drops-noroute":   r.MeanNoRouteDrops,
				}
			})
		})
	}
}

// BenchmarkAblationTriggered removes triggered updates from RIP (§4.3):
// recovery must wait for the full periodic cycle everywhere.
func BenchmarkAblationTriggered(b *testing.B) {
	for _, triggered := range []bool{true, false} {
		name := "with-triggered"
		if !triggered {
			name = "periodic-only"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(ProtoRIP, 4)
			cfg.Vector.TriggeredUpdates = triggered
			runTrialBench(b, cfg, func(r *Result) map[string]float64 {
				return map[string]float64{
					"drops-noroute": r.MeanNoRouteDrops,
					"fwd-conv-s":    r.MeanFwdConv,
				}
			})
		})
	}
}

// BenchmarkAblationDetectionDelay varies the failure detection time (§5's
// fixed 50 ms): the blackhole before the protocol reacts scales with it.
func BenchmarkAblationDetectionDelay(b *testing.B) {
	for _, detect := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second} {
		b.Run(detect.String(), func(b *testing.B) {
			cfg := benchConfig(ProtoDBF, 6)
			cfg.Net.DetectDelay = detect
			runTrialBench(b, cfg, func(r *Result) map[string]float64 {
				return map[string]float64{
					"drops-linkfail": r.MeanLinkDrops,
					"drops-noroute":  r.MeanNoRouteDrops,
				}
			})
		})
	}
}

// BenchmarkExtensionLinkState compares the link-state protocol (the
// paper's §6 future work) against the vector family at two degrees.
func BenchmarkExtensionLinkState(b *testing.B) {
	for _, proto := range []ProtocolKind{ProtoLS, ProtoDBF} {
		for _, degree := range []int{4, 6} {
			b.Run(fmt.Sprintf("%s/degree%d", proto, degree), func(b *testing.B) {
				runTrialBench(b, benchConfig(proto, degree), func(r *Result) map[string]float64 {
					return map[string]float64{
						"drops-noroute": r.MeanNoRouteDrops,
						"fwd-conv-s":    r.MeanFwdConv,
					}
				})
			})
		}
	}
}

// BenchmarkExtensionMultiFlow runs three concurrent flows (§6 future
// work).
func BenchmarkExtensionMultiFlow(b *testing.B) {
	cfg := benchConfig(ProtoDBF, 4)
	cfg.Flows = 3
	runTrialBench(b, cfg, func(r *Result) map[string]float64 {
		return map[string]float64{"delivery-ratio": r.DeliveryRatio}
	})
}

// BenchmarkExtensionMultiFailure overlays two extra random link failures
// on the primary one (§6 future work).
func BenchmarkExtensionMultiFailure(b *testing.B) {
	cfg := benchConfig(ProtoDBF, 6)
	cfg.Scenario = fmt.Sprintf("failpath @%v; failrandom @%v; failrandom @%v",
		cfg.FailAt, cfg.FailAt+5*time.Second, cfg.FailAt+15*time.Second)
	runTrialBench(b, cfg, func(r *Result) map[string]float64 {
		return map[string]float64{
			"delivery-ratio": r.DeliveryRatio,
			"drops-noroute":  r.MeanNoRouteDrops,
		}
	})
}

// BenchmarkExtensionFlapDamping compares BGP3 with and without RFC 2439
// route flap damping on a 5-flap link — the Mao et al. [15] effect from
// the paper's introduction: damping suppresses the flapping route and
// hurts delivery even after the link stabilizes.
func BenchmarkExtensionFlapDamping(b *testing.B) {
	for _, withDamping := range []bool{false, true} {
		name := "plain"
		if withDamping {
			name = "damped"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(ProtoBGP3, 4)
			cfg.Scenario = fmt.Sprintf("failpath @%v restore=3s flaps=5", cfg.FailAt)
			if withDamping {
				dcfg := DefaultDampingConfig()
				dcfg.HalfLife = 60 * time.Second
				cfg.BGP3.Damping = &dcfg
			}
			runTrialBench(b, cfg, func(r *Result) map[string]float64 {
				return map[string]float64{
					"delivery-ratio": r.DeliveryRatio,
					"drops-noroute":  r.MeanNoRouteDrops,
				}
			})
		})
	}
}

// BenchmarkExtensionFastReroute compares protocols with and without
// precomputed loop-free-alternate protection (the paper's related work
// [1], [27]): the data plane deflects before the control plane reacts, so
// even RIP's long blackhole disappears.
func BenchmarkExtensionFastReroute(b *testing.B) {
	for _, proto := range []ProtocolKind{ProtoRIP, ProtoDBF} {
		for _, frr := range []bool{false, true} {
			name := proto.String()
			if frr {
				name += "+frr"
			}
			b.Run(name, func(b *testing.B) {
				cfg := benchConfig(proto, 6)
				cfg.FastReroute = frr
				runTrialBench(b, cfg, func(r *Result) map[string]float64 {
					return map[string]float64{
						"drops-noroute":  r.MeanNoRouteDrops,
						"delivery-ratio": r.DeliveryRatio,
					}
				})
			})
		}
	}
}

// BenchmarkExtensionECMP compares link-state routing with and without
// equal-cost multipath under four concurrent flows: with ECMP, a failure
// only disturbs the flows hashed onto the broken path.
func BenchmarkExtensionECMP(b *testing.B) {
	for _, ecmp := range []bool{false, true} {
		name := "single-path"
		if ecmp {
			name = "ecmp"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(ProtoLS, 6)
			cfg.Flows = 4
			cfg.LS.ECMP = ecmp
			runTrialBench(b, cfg, func(r *Result) map[string]float64 {
				return map[string]float64{"delivery-ratio": r.DeliveryRatio}
			})
		})
	}
}

// BenchmarkExtensionWorkloads compares the flow's arrival process: the
// paper's CBR against Poisson and bursty on/off traffic.
func BenchmarkExtensionWorkloads(b *testing.B) {
	for _, pattern := range []TrafficPattern{TrafficCBR, TrafficPoisson, TrafficOnOff} {
		b.Run(pattern.String(), func(b *testing.B) {
			cfg := benchConfig(ProtoDBF, 4)
			cfg.Traffic = pattern
			runTrialBench(b, cfg, func(r *Result) map[string]float64 {
				return map[string]float64{
					"delivery-ratio": r.DeliveryRatio,
					"drops-noroute":  r.MeanNoRouteDrops,
				}
			})
		})
	}
}

// BenchmarkExtensionLargerNetwork scales the mesh to 10×10 (§6 future
// work: "larger network sizes").
func BenchmarkExtensionLargerNetwork(b *testing.B) {
	cfg := benchConfig(ProtoDBF, 4)
	cfg.Rows, cfg.Cols = 10, 10
	runTrialBench(b, cfg, func(r *Result) map[string]float64 {
		return map[string]float64{
			"drops-noroute": r.MeanNoRouteDrops,
			"fwd-conv-s":    r.MeanFwdConv,
		}
	})
}

// benchSweepSpec is the grid used by the sweep-orchestrator benches: four
// cells of the shortened paper experiment.
func benchSweepSpec() sweep.Spec {
	base := benchConfig(ProtoDBF, 4)
	return sweep.Spec{
		Name:      "bench",
		Protocols: []string{"dbf", "rip"},
		Degrees:   []int{3, 4},
		Trials:    1,
		Seed:      1,
		Base:      &base,
	}
}

// BenchmarkSweepCold measures the orchestrator with an empty result cache:
// every cell simulates. Together with BenchmarkSweepCached it tracks the
// cache's speedup in the perf trajectory.
func BenchmarkSweepCold(b *testing.B) {
	spec := benchSweepSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := sweep.Options{CacheDir: filepath.Join(b.TempDir(), fmt.Sprintf("cache%d", i))}
		out, err := sweep.Run(context.Background(), spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		if out.Executed != len(out.Cells) {
			b.Fatalf("cold run hit the cache: %d executed of %d", out.Executed, len(out.Cells))
		}
	}
}

// BenchmarkSweepCached measures the orchestrator with a fully warm cache:
// every cell is served from disk and rehydrated.
func BenchmarkSweepCached(b *testing.B) {
	spec := benchSweepSpec()
	opts := sweep.Options{CacheDir: filepath.Join(b.TempDir(), "cache")}
	if _, err := sweep.Run(context.Background(), spec, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sweep.Run(context.Background(), spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		if out.CacheHits != len(out.Cells) {
			b.Fatalf("cached run simulated: %d hits of %d", out.CacheHits, len(out.Cells))
		}
	}
}

// BenchmarkTopology measures mesh construction across the degree range
// (the generator behind Figure 2).
func BenchmarkTopology(b *testing.B) {
	for _, degree := range []int{3, 4, 8, 16} {
		b.Run(fmt.Sprintf("degree%d", degree), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topology.NewMesh(7, 7, degree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorEvents measures the raw event-loop throughput
// underlying every experiment.
func BenchmarkSimulatorEvents(b *testing.B) {
	cfg := benchConfig(ProtoDBF, 4)
	cfg.End = cfg.FailAt + 20*time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
