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

	snap := m.Snapshot()
	for _, k := range snap.Keys() {
		fmt.Printf("%s %d\n", k, snap[k])
	}
	// Output:
	// drops.no_route 1
	// packets.delivered 4
	// packets.in_flight_end 1
	// packets.sent 6
}

// ExampleTimeline logs a miniature convergence episode and renders it as
// NDJSON — the format cmd/convsim -timeline writes.
func ExampleTimeline() {
	tl := obs.NewTimeline()
	failAt := 10 * time.Second
	tl.Add(obs.Record{Kind: obs.KindTrialStart, Node: -1, Peer: -1, Dst: -1, Seed: 1})
	tl.Add(obs.Record{At: failAt, Kind: obs.KindLinkDown, Node: 24, Peer: 25, Dst: -1})
	tl.Add(obs.Record{At: failAt + 52*time.Millisecond, Kind: obs.KindFIBChange, Node: 24, Peer: 17, Dst: 48})
	tl.Finish(failAt)
	tl.WriteNDJSON(os.Stdout)
	// Output:
	// {"t_ns":0,"event":"trial_start","seed":1}
	// {"t_ns":10000000000,"event":"link_down","node":24,"peer":25}
	// {"t_ns":10052000000,"event":"fib_change","node":24,"dst":48,"next_hop":17}
	// {"t_ns":10052000000,"event":"fib_first_change","node":24}
	// {"t_ns":10052000000,"event":"fib_last_change","node":24}
	// {"t_ns":10052000000,"event":"convergence_complete"}
}
