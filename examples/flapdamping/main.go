// Flapdamping explores the route-flap-damping tension the paper's
// introduction raises ([4] Bush et al., [15] Mao et al.): damping protects
// routers from flapping links, but it does so by suppressing routes — and
// a suppressed route blackholes packets even while the link is actually up.
//
// The experiment flaps one link on the flow's path five times, then lets
// it stay up, comparing BGP3 with and without RFC 2439 damping.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"routeconv"
)

func main() {
	base := routeconv.DefaultConfig()
	base.Protocol = routeconv.ProtoBGP3
	base.Trials = 10
	// Up/down cycle of 6 s; the link is permanently up after ~30 s.
	base.Scenario = "failpath @400s restore=3s flaps=5"

	fmt.Fprintln(os.Stderr, "running BGP3 with a 5-flap link, 10 trials per variant...")

	plain, err := routeconv.Run(base)
	if err != nil {
		log.Fatal(err)
	}

	damped := base
	dcfg := routeconv.DefaultDampingConfig()
	dcfg.HalfLife = 60 * time.Second // RFC's 15 min scaled to an 800 s run
	damped.BGP3.Damping = &dcfg
	dres, err := routeconv.Run(damped)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %14s %14s %12s\n", "variant", "delivery", "no-route", "fwd-conv")
	print := func(name string, r *routeconv.Result) {
		fmt.Printf("%-22s %14.4f %14.1f %11.1fs\n",
			name, r.DeliveryRatio, r.MeanNoRouteDrops, r.MeanFwdConv)
	}
	print("bgp3", plain)
	print("bgp3 + flap damping", dres)

	fmt.Println("\nWhat to look for:")
	fmt.Println("  - Without damping, each flap costs a brief convergence transient but the")
	fmt.Println("    protocol keeps delivering between flaps.")
	fmt.Println("  - With damping, the flapping route crosses the suppress threshold and is")
	fmt.Println("    ignored until its penalty decays — so packets are dropped long after the")
	fmt.Println("    link has stabilized. Damping trades churn for reachability.")
}
