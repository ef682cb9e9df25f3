// Command convsim runs, traces and inspects one convergence experiment.
//
// By default it runs the experiment and prints its measurements: drops by
// cause, convergence times, and the per-second throughput/delay series
// around the failure. -trace instead replays one trial and prints its
// routing and forwarding timeline around the failure — the kind of
// trace-file analysis the paper used to explain transient loops (§5.2).
// -inspect prints a summary of the router graph the trials run on and
// exits.
//
// Usage:
//
//	convsim [-protocol dbf] [-degree 4] [-rows 7] [-cols 7] [-trials 10]
//	        [-topo ba:n=10000,m=2] [-senderstart 390s] [-failat 400s]
//	        [-end 800s] [-seed 1] [-flows 1] [-rate 20] [-shards 8]
//	        [-scenario "fail link 3-7 @400s; loss link 1-2 p=0.01 @410s"]
//	        [-timeline out.ndjson] [-cpuprofile FILE] [-memprofile FILE]
//	convsim -trace [-trial 0] [-window 60s] [-all-destinations] [flags above]
//	convsim -inspect [-export FILE] [-topo SPEC | -rows 7 -cols 7 -degree 4]
//
// With -scenario, the default single-link failure schedule is replaced by
// the given disturbance script (grammar and semantics: SCENARIOS.md),
// measured from its first failure; -failat is then an error.
// With -timeline, trial -trial (default 0) is replayed with the
// convergence timeline attached and the records are written as NDJSON
// (schema: OBSERVABILITY.md); both modes replay it the same way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/topology"
	"routeconv/internal/topology/topoio"
	"routeconv/internal/trace"
)

const (
	// exactThreshold is the node count above which -inspect switches
	// diameter and average path length from exact all-pairs BFS to
	// sampled estimates.
	exactThreshold = 2000
	// inspectSamples is the number of BFS sources behind those estimates.
	inspectSamples = 8
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "convsim:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	ef                       core.ExperimentFlags
	trials, flows, rate      int
	senderStart, failAt, end time.Duration
	ecmp, detail             bool
	timeline                 string
	cpuProfile, memProfile   string

	trace, allDsts bool
	trial          int
	window         time.Duration

	inspect bool
	export  string
}

// newFlagSet declares every convsim flag, with the paper's defaults.
func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("convsim", flag.ContinueOnError)
	o := &options{ef: core.ExperimentFlags{Rows: 7, Cols: 7, Degree: 4, Protocol: "dbf", Seed: 1}}
	o.ef.Register(fs)
	fs.IntVar(&o.trials, "trials", 10, "independent trials")
	fs.IntVar(&o.flows, "flows", 1, "concurrent sender/receiver pairs")
	fs.IntVar(&o.rate, "rate", 20, "packets per second per flow")
	fs.DurationVar(&o.senderStart, "senderstart", 0, "override when the probe flow starts (default: paper's 390s)")
	fs.DurationVar(&o.failAt, "failat", 0, "override the default failure's time (default: paper's 400s); not with -scenario")
	fs.DurationVar(&o.end, "end", 0, "override the simulation horizon (default: paper's 800s)")
	fs.BoolVar(&o.ecmp, "ecmp", false, "install equal-cost multipath sets (dbf and ls)")
	fs.BoolVar(&o.detail, "detail", false, "print per-trial detail")
	fs.StringVar(&o.timeline, "timeline", "", "write trial -trial's convergence timeline to this NDJSON file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file after the run")
	fs.BoolVar(&o.trace, "trace", false, "replay trial -trial and print its routing and forwarding timeline instead of running the experiment")
	fs.IntVar(&o.trial, "trial", 0, "which trial -trace and -timeline replay")
	fs.DurationVar(&o.window, "window", 60*time.Second, "with -trace, how long after the failure to print events")
	fs.BoolVar(&o.allDsts, "all-destinations", false, "with -trace, print route changes for every destination, not just the flow's")
	fs.BoolVar(&o.inspect, "inspect", false, "print a summary of the router graph and exit")
	fs.StringVar(&o.export, "export", "", "with -inspect, write the router graph as an edge-list file")
	return fs, o
}

func run(args []string, w io.Writer) (err error) {
	fs, o := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case o.rate <= 0:
		return fmt.Errorf("-rate %d: need a positive packet rate", o.rate)
	case o.window <= 0:
		return fmt.Errorf("-window %v: need a positive duration", o.window)
	case o.trial < 0:
		return fmt.Errorf("-trial %d: need a trial index ≥ 0", o.trial)
	case o.failAt > 0 && o.ef.Scenario != "":
		return errors.New("-failat times the default failure, which -scenario replaces: set the failure's time in the script")
	}
	cfg, err := o.config()
	if err != nil {
		return err
	}
	stop, err := core.StartProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	switch {
	case o.inspect:
		return inspect(w, cfg, o.export)
	case o.trace:
		return traceTrial(w, cfg, o)
	}
	return runExperiment(w, cfg, o)
}

// config resolves the flags into the experiment configuration every mode
// starts from.
func (o *options) config() (core.Config, error) {
	cfg, err := o.ef.Config()
	if err != nil {
		return cfg, err
	}
	cfg.Trials = o.trials
	cfg.Flows = o.flows
	cfg.PacketInterval = time.Second / time.Duration(o.rate)
	if o.senderStart > 0 {
		cfg.SenderStart = o.senderStart
	}
	if o.failAt > 0 {
		cfg.FailAt = o.failAt
	}
	if o.end > 0 {
		cfg.End = o.end
	}
	if o.ecmp {
		cfg.Vector.ECMP = true
		cfg.LS.ECMP = true
	}
	return cfg, nil
}

// replay re-runs one trial with the full trace collector. With a timeline
// path, the convergence timeline is attached and written there as NDJSON.
func replay(w io.Writer, cfg core.Config, trial int, path string) (core.TrialResult, *trace.Collector, error) {
	var tl *obs.Timeline
	if path != "" {
		tl = obs.NewTimeline()
	}
	tr, col, err := core.TraceObserved(cfg, trial, tl)
	if err != nil || tl == nil {
		return tr, col, err
	}
	f, err := os.Create(path)
	if err != nil {
		return tr, col, err
	}
	if err := tl.WriteNDJSON(f); err != nil {
		f.Close()
		return tr, col, err
	}
	if err := f.Close(); err != nil {
		return tr, col, err
	}
	fmt.Fprintf(w, "wrote trial %d convergence timeline (%d records) to %s\n", trial, tl.Len(), path)
	return tr, col, nil
}

// runExperiment runs every trial and prints the aggregate measurements.
func runExperiment(w io.Writer, cfg core.Config, o *options) error {
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	anchor := cfg.Anchor()

	if cfg.Topo != "" {
		fmt.Fprintf(w, "protocol=%s topo=%s trials=%d flows=%d rate=%d pps\n",
			cfg.Protocol, cfg.Topo, o.trials, o.flows, o.rate)
	} else {
		fmt.Fprintf(w, "protocol=%s degree=%d mesh=%dx%d trials=%d flows=%d rate=%d pps\n",
			cfg.Protocol, o.ef.Degree, o.ef.Rows, o.ef.Cols, o.trials, o.flows, o.rate)
	}
	fmt.Fprintf(w, "failure at %v; run ends at %v\n\n", anchor, cfg.End)
	fmt.Fprintf(w, "warmed-up trials:            %d/%d\n", res.WarmedUpTrials, o.trials)
	fmt.Fprintf(w, "mean drops (no route):       %.1f\n", res.MeanNoRouteDrops)
	fmt.Fprintf(w, "mean drops (TTL expired):    %.1f\n", res.MeanTTLDrops)
	fmt.Fprintf(w, "mean drops (onto dead link): %.1f\n", res.MeanLinkDrops)
	fmt.Fprintf(w, "mean drops (queue overflow): %.1f\n", res.MeanQueueDrops)
	if res.MeanRandomLoss > 0 {
		fmt.Fprintf(w, "mean drops (random loss):    %.1f\n", res.MeanRandomLoss)
	}
	fmt.Fprintf(w, "forwarding convergence:      %.2f s\n", res.MeanFwdConv)
	fmt.Fprintf(w, "routing convergence:         %.2f s\n", res.MeanRoutingConv)
	fmt.Fprintf(w, "transient forwarding paths:  %.1f\n", res.MeanTransientPath)
	fmt.Fprintf(w, "delivery ratio:              %.4f\n", res.DeliveryRatio)

	if o.detail {
		fmt.Fprintln(w)
		for i, tr := range res.Trials {
			fmt.Fprintf(w, "trial %2d: sender@%d receiver@%d failed=%d-%d warmed=%v drops(noroute=%d ttl=%d link=%d queue=%d) fwd=%.2fs routing=%.2fs\n",
				i, tr.SenderRouter, tr.ReceiverRouter, tr.FailedLink.A, tr.FailedLink.B, tr.WarmedUp,
				tr.NoRouteDrops, tr.TTLDrops, tr.LinkFailureDrops, tr.QueueDrops,
				tr.ForwardingConvergence.Seconds(), tr.RoutingConvergence.Seconds())
		}
	}

	// Print the throughput/delay window around the failure.
	failBin := int((anchor - cfg.SenderStart) / time.Second)
	lo, hi := max(failBin-5, 0), min(failBin+45, len(res.MeanThroughput))
	fmt.Fprintf(w, "\ninstantaneous throughput and delay (t in seconds since sender start; failure at t=%d):\n", failBin)
	fmt.Fprintf(w, "%6s  %12s  %10s\n", "t_s", "pps", "delay_s")
	for bin := lo; bin < hi; bin++ {
		delay := "-"
		if d := res.MeanDelay[bin]; d == d { // not NaN
			delay = fmt.Sprintf("%.4f", d)
		}
		fmt.Fprintf(w, "%6d  %12.1f  %10s\n", bin, res.MeanThroughput[bin], delay)
	}

	if o.timeline != "" {
		fmt.Fprintln(w)
		if _, _, err := replay(w, cfg, o.trial, o.timeline); err != nil {
			return err
		}
	}
	return nil
}

// traceTrial replays trial o.trial and prints its forwarding-path, route
// change and drop timelines from 5 s before the failure to o.window after.
func traceTrial(w io.Writer, cfg core.Config, o *options) error {
	cfg.Trials = o.trial + 1
	cfg.Net.RecordHops = true
	tr, col, err := replay(w, cfg, o.trial, o.timeline)
	if err != nil {
		return err
	}
	anchor := cfg.Anchor()

	rel := func(at time.Duration) string {
		return fmt.Sprintf("%+9.3fs", (at - anchor).Seconds())
	}

	fmt.Fprintf(w, "trial %d of %s at degree %d (seed %d)\n", o.trial, cfg.Protocol, o.ef.Degree, tr.Seed)
	fmt.Fprintf(w, "flow: host→router %d ... router %d→host; failed link %d-%d at t=%v\n",
		tr.SenderRouter, tr.ReceiverRouter, tr.FailedLink.A, tr.FailedLink.B, anchor)
	fmt.Fprintf(w, "outcome: delivered %d/%d, drops noroute=%d ttl=%d linkfail=%d queue=%d, loop escapes=%d\n",
		tr.Delivered, tr.Sent, tr.NoRouteDrops, tr.TTLDrops, tr.LinkFailureDrops, tr.QueueDrops, tr.LoopEscapes)
	fmt.Fprintf(w, "convergence: forwarding %.3fs, routing %.3fs, %d transient paths\n\n",
		tr.ForwardingConvergence.Seconds(), tr.RoutingConvergence.Seconds(), tr.TransientPaths)

	from, to := anchor-5*time.Second, anchor+o.window

	fmt.Fprintln(w, "forwarding path timeline (times relative to the failure):")
	for _, ps := range col.PathHistory {
		if ps.At < from || ps.At > to {
			continue
		}
		state := "BROKEN"
		if ps.OK {
			state = fmt.Sprintf("ok, %d hops", len(ps.Path)-1)
		}
		fmt.Fprintf(w, "  %s  %-12s %s\n", rel(ps.At), state, pathString(ps.Path))
	}

	fmt.Fprintln(w, "\nroute changes (node → destination):")
	count := 0
	tl := col.Timeline()
	for i := range tl.Len() {
		r := tl.At(i)
		if (r.Kind != obs.KindFIBChange && r.Kind != obs.KindFIBRemove) || r.At < from || r.At > to {
			continue
		}
		if !o.allDsts && r.Dst != int32(col.Dst) {
			continue
		}
		count++
		if count > 200 {
			fmt.Fprintln(w, "  ... (truncated at 200 events)")
			break
		}
		if r.Kind == obs.KindFIBRemove {
			fmt.Fprintf(w, "  %s  node %-3d lost route to %d\n", rel(r.At), r.Node, r.Dst)
		} else {
			fmt.Fprintf(w, "  %s  node %-3d routes %d via %d\n", rel(r.At), r.Node, r.Dst, r.Peer)
		}
	}

	fmt.Fprintln(w, "\ndrop timeline (packets per second after the failure, by cause):")
	printDropBins(w, col.Drops, anchor, to)
	return nil
}

// printDropBins renders per-second data drop counts by cause over
// [failAt, to].
func printDropBins(w io.Writer, drops []trace.Drop, failAt, to time.Duration) {
	type binKey struct {
		bin    int
		reason netsim.DropReason
	}
	bins := make(map[binKey]int)
	maxBin := 0
	for _, d := range drops {
		if d.At < failAt || d.At > to {
			continue
		}
		bin := int((d.At - failAt) / time.Second)
		bins[binKey{bin, d.Reason}]++
		if bin > maxBin {
			maxBin = bin
		}
	}
	if len(bins) == 0 {
		fmt.Fprintln(w, "  (no data drops in the window)")
		return
	}
	reasons := []netsim.DropReason{netsim.DropNoRoute, netsim.DropTTLExpired, netsim.DropQueueOverflow, netsim.DropLinkFailure}
	for bin := 0; bin <= maxBin; bin++ {
		var parts []string
		for _, r := range reasons {
			if n := bins[binKey{bin, r}]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s×%d", r, n))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(w, "  +%3ds  %s\n", bin, strings.Join(parts, "  "))
		}
	}
}

func pathString(path []netsim.NodeID) string {
	parts := make([]string, len(path))
	for i, n := range path {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, "→")
}

// inspect prints a summary of the router graph the trials run on — the
// -topo graph, or the mesh of -rows, -cols and -degree: counts,
// connectivity, diameter and path length (exact up to exactThreshold
// nodes, sampled above), the degree distribution, and the sender and
// receiver attachment routers. With an export path it also writes the
// graph's edge list there.
func inspect(w io.Writer, cfg core.Config, export string) error {
	label := "topo " + cfg.Topo
	if cfg.Topo == "" {
		label = fmt.Sprintf("mesh %dx%d, target degree %d", cfg.Rows, cfg.Cols, cfg.Degree)
	}
	if err := cfg.ResolveTopology(); err != nil {
		return err
	}
	g, senders, receivers, err := cfg.RouterGraph()
	if err != nil {
		return err
	}
	csr := topology.NewCSR(g)
	fmt.Fprintln(w, label)
	if g.Len() <= exactThreshold {
		fmt.Fprintf(w, "nodes: %d  edges: %d  connected: %v  diameter: %d  avg shortest path: %.2f\n",
			g.Len(), g.NumEdges(), csr.Connected(), g.Diameter(), csr.AvgPathLengthSampled(g.Len(), 1))
	} else {
		fmt.Fprintf(w, "nodes: %d  edges: %d  connected: %v  diameter: >=%d (double-sweep, %d samples)  avg shortest path: ~%.2f (sampled)\n",
			g.Len(), g.NumEdges(), csr.Connected(),
			csr.EstimateDiameter(inspectSamples, 1), inspectSamples,
			csr.AvgPathLengthSampled(inspectSamples, 1))
	}
	printHistogram(w, g)
	fmt.Fprintf(w, "senders: %d routers, e.g. %v\n", len(senders), senders[:min(8, len(senders))])
	fmt.Fprintf(w, "receivers: %d routers, e.g. %v\n", len(receivers), receivers[:min(8, len(receivers))])

	if export != "" {
		if err := topoio.WriteFile(export, g); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", export)
	}
	return nil
}

// printHistogram prints the degree distribution: the exact histogram when
// there are few distinct degrees (meshes, fabrics), or quantiles for
// heavy-tailed graphs.
func printHistogram(w io.Writer, g *topology.Graph) {
	hist := g.DegreeHistogram()
	degrees := make([]int, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	if len(degrees) <= 12 {
		fmt.Fprintln(w, "degree histogram:")
		for _, d := range degrees {
			fmt.Fprintf(w, "  degree %2d: %d nodes\n", d, hist[d])
		}
		return
	}
	// Heavy-tailed: quantiles instead of one row per degree.
	sorted := g.DegreeCounts(nil)
	sort.Ints(sorted)
	n := len(sorted)
	fmt.Fprintf(w, "degree distribution (%d distinct degrees): min %d  p50 %d  mean %.2f  p90 %d  p99 %d  max %d\n",
		len(degrees), sorted[0], sorted[n/2], 2*float64(g.NumEdges())/float64(n),
		sorted[n*9/10], sorted[n*99/100], sorted[n-1])
}
