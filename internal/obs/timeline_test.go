package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
	"time"
	"unsafe"
)

// writeNDJSONFmt is the fmt.Fprintf renderer WriteNDJSON replaced, kept as
// its oracle: every line the fmt-free renderer writes must be these bytes.
// It renders the records as given, not as a Timeline stores them.
func writeNDJSONFmt(rs []Record, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range rs {
		var err error
		switch r.Kind {
		case KindTrialStart:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"seed":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Seed)
		case KindLinkDown, KindLinkUp, KindLinkDownDetected, KindLinkUpDetected, KindCostOut, KindCostIn:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"peer":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer)
		case KindFIBChange:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"dst":%d,"next_hop":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Dst, r.Peer)
		case KindFIBRemove:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Dst)
		case KindWithdrawal:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"neighbor":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Dst)
		case KindRouteFlap, KindRouteReuse:
			state := "suppressed"
			if r.Kind == KindRouteReuse {
				state = "reused"
			}
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"neighbor":%d,"dst":%d,"state":%q}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Dst, state)
		case KindFirstFIBChange, KindLastFIBChange:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node)
		case KindConvergenceComplete:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind])
		case KindFluidDemote, KindFluidAbsorb:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Dst)
		case KindNodeDown, KindNodeUp:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node)
		case KindLinkLoss:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"peer":%d,"rate":%g}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Rate)
		case KindChurnStart:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"rate":%g}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Rate)
		case KindChurnEnd:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind])
		default:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"peer":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Dst)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FuzzWriteNDJSON renders random records of every kind — any node, peer
// and destination ID, time, seed and rate — and requires the bytes of the
// fmt oracle. The fuzzed record is written twice around the longest line,
// so a reused line buffer that kept a longer line's tail would show. Each
// record also reads back through At with every field its kind uses.
func FuzzWriteNDJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, at int64, node, peer, dst int32, seed int64, rate float64) {
		r := Record{At: time.Duration(at), Kind: Kind(kind % uint8(numKinds)),
			Node: node, Peer: peer, Dst: dst, Seed: seed, Rate: rate}
		long := Record{At: math.MaxInt64, Kind: KindRouteFlap,
			Node: math.MinInt32, Peer: math.MinInt32, Dst: math.MinInt32}
		rs := []Record{r, long, r}
		tl := NewTimeline()
		tl.Append(rs...)
		var got, want bytes.Buffer
		if err := tl.WriteNDJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeNDJSONFmt(rs, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("record %+v:\n got %s\nwant %s", r, got.Bytes(), want.Bytes())
		}
		for i, w := range rs {
			if g := tl.At(i); !sameUsed(g, w) {
				t.Errorf("At(%d) = %+v, appended %+v", i, g, w)
			}
		}
	})
}

// sameUsed reports whether a and b are the same record in every field
// a's kind uses: those its NDJSON line prints, a rate to the bit.
func sameUsed(a, b Record) bool {
	if a.At != b.At || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindTrialStart:
		return a.Seed == b.Seed
	case KindChurnStart:
		return math.Float64bits(a.Rate) == math.Float64bits(b.Rate)
	case KindLinkLoss:
		return a.Node == b.Node && a.Peer == b.Peer && math.Float64bits(a.Rate) == math.Float64bits(b.Rate)
	case KindConvergenceComplete, KindChurnEnd:
		return true
	case KindFirstFIBChange, KindLastFIBChange, KindNodeDown, KindNodeUp:
		return a.Node == b.Node
	case KindLinkDown, KindLinkUp, KindLinkDownDetected, KindLinkUpDetected, KindCostOut, KindCostIn:
		return a.Node == b.Node && a.Peer == b.Peer
	case KindFIBRemove, KindFluidDemote, KindFluidAbsorb:
		return a.Node == b.Node && a.Dst == b.Dst
	}
	return a.Node == b.Node && a.Peer == b.Peer && a.Dst == b.Dst
}

// A traced 49-node churn trial commits millions of records; the stored
// record's width is what the stream costs. The time, the kind and three
// int32 fields, the width of a topology node ID, fill 24 bytes: a seed or
// rate does not widen every record.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got != 24 {
		t.Errorf("stored record is %d bytes, want 24", got)
	}
}

// TestWriteNDJSONAllocs pins rendering at a constant number of
// allocations: a 10 000-record timeline costs what a 10-record one does.
func TestWriteNDJSONAllocs(t *testing.T) {
	timeline := func(n int) *Timeline {
		tl := NewTimeline()
		for i := range n {
			tl.Append(Record{At: time.Duration(i) * time.Millisecond, Kind: Kind(i % int(numKinds)),
				Node: int32(i), Peer: int32(i + 1), Dst: int32(i + 2), Seed: int64(i), Rate: float64(i) / 7})
		}
		return tl
	}
	allocs := func(tl *Timeline) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := tl.WriteNDJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(timeline(10)), allocs(timeline(10_000))
	if large != small {
		t.Errorf("WriteNDJSON: %v allocs for 10 000 records, %v for 10; want the same", large, small)
	}
}

// TestTimelineBlocks pins the stream's storage across its block
// boundaries: a first block of 256 records, then blocks of 4096; a record
// never moves once appended; the storage beyond the records is
// under one block; and every record reads back in order, whether appended
// one at a time or in a batch that spans several blocks.
func TestTimelineBlocks(t *testing.T) {
	tl := NewTimeline()
	if tl.Len() != 0 || len(tl.blocks) != 0 {
		t.Fatalf("a new timeline holds %d records in %d blocks", tl.Len(), len(tl.blocks))
	}
	node := func(i int) Record {
		return Record{At: time.Duration(i), Kind: KindNodeDown, Node: int32(i), Peer: -1, Dst: -1}
	}
	tl.Append(node(0))
	first := &tl.blocks[0][0]
	const single = firstBlock + blockLen + 1 // into the second full-size block
	for i := 1; i < single; i++ {
		tl.Append(node(i))
	}
	batch := make([]Record, 3*blockLen+5)
	for i := range batch {
		batch[i] = node(single + i)
	}
	tl.Append(batch...)
	n := single + len(batch)
	if tl.Len() != n {
		t.Fatalf("Len = %d after %d appends", tl.Len(), n)
	}
	if &tl.blocks[0][0] != first {
		t.Error("the first record moved when the stream grew")
	}
	stored := 0
	for k, blk := range tl.blocks {
		w := blockLen
		if k == 0 {
			w = firstBlock
		}
		if cap(blk) != w {
			t.Errorf("block %d holds %d records, want %d", k, cap(blk), w)
		}
		if k < len(tl.blocks)-1 && len(blk) != cap(blk) {
			t.Errorf("block %d is %d/%d full with a block after it", k, len(blk), cap(blk))
		}
		stored += cap(blk)
	}
	if slack := stored - n; slack >= blockLen {
		t.Errorf("%d records stored in room for %d: slack %d, want under one block (%d)", n, stored, slack, blockLen)
	}
	for i := range n {
		if r := tl.At(i); r != node(i) {
			t.Fatalf("At(%d) = %+v, want %+v", i, r, node(i))
		}
	}
}

// At returns a seed or a rate exactly as appended: a trial_start seed of
// any sign, and churn_start and link_loss rates that are NaN (payload
// kept), infinite or negative zero.
func TestTimelineWideFields(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	rs := []Record{
		{Kind: KindTrialStart, Node: -1, Peer: -1, Dst: -1, Seed: math.MinInt64},
		{Kind: KindTrialStart, Node: -1, Peer: -1, Dst: -1, Seed: -2},
		{At: 1, Kind: KindChurnStart, Node: -1, Peer: -1, Dst: -1, Rate: nan},
		{At: 2, Kind: KindLinkLoss, Node: 3, Peer: 4, Dst: -1, Rate: math.Inf(1)},
		{At: 3, Kind: KindChurnStart, Node: -1, Peer: -1, Dst: -1, Rate: math.Inf(-1)},
		{At: 4, Kind: KindLinkLoss, Node: 4, Peer: 3, Dst: -1, Rate: nan},
		{At: 5, Kind: KindLinkLoss, Node: 5, Peer: 6, Dst: -1, Rate: math.Copysign(0, -1)},
	}
	tl := NewTimeline()
	tl.Append(rs...)
	for i, w := range rs {
		g := tl.At(i)
		if g.At != w.At || g.Kind != w.Kind || g.Node != w.Node || g.Peer != w.Peer || g.Dst != w.Dst ||
			g.Seed != w.Seed || math.Float64bits(g.Rate) != math.Float64bits(w.Rate) {
			t.Errorf("At(%d) = %+v, appended %+v", i, g, w)
		}
	}
}
