package obs_test

import (
	"fmt"
	"os"
	"time"

	"routeconv/internal/obs"
)

// ExampleMetrics records a few data-plane events and prints the resulting
// snapshot — the same named form that lands in TrialResult.Metrics and in
// sweep manifests.
func ExampleMetrics() {
	m := obs.NewMetrics()
	m.Add(obs.PacketsSent, 6)
	m.Add(obs.PacketsDelivered, 4)
	m.Inc(obs.DropNoRoute) // the sixth packet is still on the wire

	fmt.Println(m.Snapshot())
	// Output:
	// map[drops.no_route:1 packets.delivered:4 packets.in_flight_end:1 packets.sent:6]
}

// ExampleTimeline renders a miniature convergence episode as NDJSON — the
// format cmd/convsim -timeline writes. A trial's timeline is written by
// its recorder (trace.Collector); this one is spelled out by hand.
func ExampleTimeline() {
	failAt := 10 * time.Second
	fibAt := failAt + 52*time.Millisecond
	tl := obs.NewTimeline()
	tl.Append(
		obs.Record{Kind: obs.KindTrialStart, Node: -1, Peer: -1, Dst: -1, Seed: 1},
		obs.Record{At: failAt, Kind: obs.KindLinkDown, Node: 24, Peer: 25, Dst: -1},
		obs.Record{At: fibAt, Kind: obs.KindFIBChange, Node: 24, Peer: 17, Dst: 48},
		obs.Record{At: fibAt, Kind: obs.KindFirstFIBChange, Node: 24, Peer: -1, Dst: -1},
		obs.Record{At: fibAt, Kind: obs.KindLastFIBChange, Node: 24, Peer: -1, Dst: -1},
		obs.Record{At: fibAt, Kind: obs.KindConvergenceComplete, Node: -1, Peer: -1, Dst: -1},
	)
	tl.WriteNDJSON(os.Stdout)
	// Output:
	// {"t_ns":0,"event":"trial_start","seed":1}
	// {"t_ns":10000000000,"event":"link_down","node":24,"peer":25}
	// {"t_ns":10052000000,"event":"fib_change","node":24,"dst":48,"next_hop":17}
	// {"t_ns":10052000000,"event":"fib_first_change","node":24}
	// {"t_ns":10052000000,"event":"fib_last_change","node":24}
	// {"t_ns":10052000000,"event":"convergence_complete"}
}
