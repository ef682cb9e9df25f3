package routeconv_test

import (
	"fmt"
	"log"
	"time"

	"routeconv"
)

// The basic experiment: DBF on a degree-6 mesh loses almost nothing when a
// link on the flow's path fails, because every router holds a cached
// alternate (the paper's Observation 1).
func ExampleRun() {
	cfg := routeconv.DefaultConfig()
	cfg.Protocol = routeconv.ProtoDBF
	cfg.Degree = 6
	cfg.Trials = 2
	// Compress the paper's 800 s schedule for this example.
	cfg.SenderStart = 190 * time.Second
	cfg.FailAt = 200 * time.Second
	cfg.End = 350 * time.Second

	res, err := routeconv.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("warmed up:", res.WarmedUpTrials == cfg.Trials)
	fmt.Println("near-lossless:", res.DeliveryRatio > 0.995)
	fmt.Println("no TTL expirations:", res.MeanTTLDrops == 0)
	// Output:
	// warmed up: true
	// near-lossless: true
	// no TTL expirations: true
}

// Sweeping protocols and degrees renders the paper's figures as tables.
func ExampleRunSweep() {
	sc := routeconv.DefaultSweep(1)
	sc.Base.SenderStart = 190 * time.Second
	sc.Base.FailAt = 200 * time.Second
	sc.Base.End = 300 * time.Second
	sc.Degrees = []int{6}
	sc.Protocols = []routeconv.ProtocolKind{routeconv.ProtoDBF}

	sr, err := routeconv.RunSweep(sc, nil)
	if err != nil {
		log.Fatal(err)
	}
	table := sr.Figure3Table() // drops due to no route vs degree
	_ = table                  // render with table.WriteText(os.Stdout)
	fmt.Println("cells:", len(sr.Cells))
	// Output:
	// cells: 1
}

// Path vector does not rule out forwarding loops (the paper's Observation
// 2 and §5.2). On the degree-5 mesh, where the paper found looping worst,
// BGP's 30 s MRAI keeps routers on inconsistent paths long enough to
// expire almost nine times as many packets in loops as BGP3's 3 s MRAI,
// and applying the MRAI per (neighbor, destination), the paper's §5.2
// conjecture, removes the loops. DBF and RIP expire packets in loops too;
// the paper reports none for RIP.
//
// The run keeps the paper's failure at 400 s and ends 100 s later, when
// every variant has converged: the drop counts and convergence times are
// those of the full 800 s run. Moving the failure earlier, as ExampleRun
// does, would move it within RIP's 30 s update cycle and change RIP's
// loop count.
func ExampleRun_transientLoops() {
	base := routeconv.DefaultConfig()
	base.Degree = 5
	base.Trials = 15
	base.End = base.FailAt + 100*time.Second

	for _, v := range []struct {
		name    string
		proto   routeconv.ProtocolKind
		perDest bool
	}{
		{"bgp (MRAI 30s)", routeconv.ProtoBGP, false},
		{"bgp3 (MRAI 3s)", routeconv.ProtoBGP3, false},
		{"bgp (per-dest MRAI)", routeconv.ProtoBGP, true},
		{"dbf", routeconv.ProtoDBF, false},
		{"rip", routeconv.ProtoRIP, false},
	} {
		cfg := base
		cfg.Protocol = v.proto
		cfg.BGP.PerDestMRAI = v.perDest
		res, err := routeconv.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-19s ttl-expired %5.1f  no-route %5.1f  fwd-conv %4.1fs  transient paths %.1f\n",
			v.name, res.MeanTTLDrops, res.MeanNoRouteDrops, res.MeanFwdConv, res.MeanTransientPath)
	}
	// Output:
	// bgp (MRAI 30s)      ttl-expired 185.5  no-route   0.0  fwd-conv 24.7s  transient paths 4.4
	// bgp3 (MRAI 3s)      ttl-expired  21.4  no-route   0.0  fwd-conv  2.8s  transient paths 4.5
	// bgp (per-dest MRAI) ttl-expired   0.0  no-route   0.0  fwd-conv  2.3s  transient paths 3.0
	// dbf                 ttl-expired   4.7  no-route   8.6  fwd-conv  2.2s  transient paths 1.5
	// rip                 ttl-expired   7.5  no-route 293.6  fwd-conv 18.0s  transient paths 4.8
}

// Route flap damping (RFC 2439) trades churn for reachability, the
// tension the paper's introduction cites from Mao et al. One link on the
// flow's path flaps five times and then stays up. Without damping, BGP3
// rides out each flap with a brief transient; with damping, the flapping
// route crosses the suppress threshold and stays suppressed until its
// penalty decays, so packets are dropped long after the link has
// stabilized.
func ExampleDefaultDampingConfig() {
	plain := routeconv.DefaultConfig()
	plain.Protocol = routeconv.ProtoBGP3
	plain.Trials = 10
	// Up/down cycles of 6 s; the link stays up from 427 s on.
	plain.Scenario = "failpath @400s restore=3s flaps=5"

	damped := plain
	damping := routeconv.DefaultDampingConfig()
	damping.HalfLife = time.Minute // the RFC's 15 min, scaled to an 800 s run
	damped.BGP3.Damping = &damping

	for _, v := range []struct {
		name string
		cfg  routeconv.Config
	}{{"bgp3", plain}, {"bgp3 + flap damping", damped}} {
		res, err := routeconv.Run(v.cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-19s delivery %.4f  no-route %6.1f  fwd-conv %5.1fs\n",
			v.name, res.DeliveryRatio, res.MeanNoRouteDrops, res.MeanFwdConv)
	}
	// Output:
	// bgp3                delivery 0.9852  no-route   26.1  fwd-conv  31.0s
	// bgp3 + flap damping delivery 0.6610  no-route 2736.3  fwd-conv 212.1s
}

// A scripted disturbance replaces the paper's single failure. Here BGP3
// runs two schedules: the paper's on-path failure with 2 % random loss on
// the seven links into the receivers' row, a cut every delivered packet
// crosses and one that hits control traffic too; and the failure cycled
// into a five-flap storm. The loss schedule's drops are charged to their
// own cause; the storm stretches forwarding convergence past the single
// failure's, each cycle restarting path exploration.
func ExampleRun_scenarios() {
	for _, v := range []struct{ name, script string }{
		{"lossy links", `
			failpath @400s
			loss link 35-42 p=0.02 @395s; loss link 36-43 p=0.02 @395s
			loss link 37-44 p=0.02 @395s; loss link 38-45 p=0.02 @395s
			loss link 39-46 p=0.02 @395s; loss link 40-47 p=0.02 @395s
			loss link 41-48 p=0.02 @395s`},
		{"flap storm", "failpath @400s restore=3s flaps=5"},
	} {
		cfg := routeconv.DefaultConfig()
		cfg.Protocol = routeconv.ProtoBGP3
		cfg.Trials = 5
		cfg.End = cfg.FailAt + 2*time.Minute
		cfg.Scenario = v.script
		res, err := routeconv.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s delivery %.4f  drops: no-route %4.1f, random loss %4.1f, dead link %.1f  fwd-conv %5.2fs\n",
			v.name, res.DeliveryRatio, res.MeanNoRouteDrops, res.MeanRandomLoss, res.MeanLinkDrops, res.MeanFwdConv)
	}
	// Output:
	// lossy links delivery 0.9762  drops: no-route 11.6, random loss 47.4, dead link 1.0  fwd-conv  0.60s
	// flap storm  delivery 0.9515  drops: no-route 24.6, random loss  0.0, dead link 5.0  fwd-conv 31.59s
}

// Validate checks a config's scenario script — its grammar, and its
// events against the horizon and the mesh — before any simulation runs,
// naming the offending event.
func ExampleConfig_Validate() {
	cfg := routeconv.DefaultConfig()
	cfg.Scenario = "loss link 21-22 p=0.01 @395s; failpath @400s restore=3s flaps=5"
	fmt.Println("valid:", cfg.Validate() == nil)
	cfg.Scenario = "fail link 0-48 @400s" // opposite corners of the 7×7 mesh
	fmt.Println(cfg.Validate())
	cfg.Scenario = "fail link 3-7 @soon"
	fmt.Println(cfg.Validate())
	// Output:
	// valid: true
	// scenario: event 0 (fail link 0-48 @6m40s): no link 0-48 in the topology
	// scenario: line 1: bad time "@soon"
}

// Protocol kinds parse from their command-line names.
func ExampleParseProtocol() {
	kind, err := routeconv.ParseProtocol("bgp3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(kind)
	// Output:
	// bgp3
}
