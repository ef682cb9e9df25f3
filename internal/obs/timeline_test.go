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
func writeNDJSONFmt(t *Timeline, w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, r := range *t {
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
// so a reused line buffer that kept a longer line's tail would show.
func FuzzWriteNDJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, at int64, node, peer, dst int32, seed int64, rate float64) {
		r := Record{At: time.Duration(at), Kind: Kind(kind % uint8(numKinds)),
			Node: node, Peer: peer, Dst: dst, Seed: seed, Rate: rate}
		long := Record{At: math.MaxInt64, Kind: KindRouteFlap,
			Node: math.MinInt32, Peer: math.MinInt32, Dst: math.MinInt32}
		tl := Timeline{r, long, r}
		var got, want bytes.Buffer
		if err := tl.WriteNDJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeNDJSONFmt(&tl, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("record %+v:\n got %s\nwant %s", r, got.Bytes(), want.Bytes())
		}
	})
}

// A traced 49-node churn trial commits millions of records; the record's
// width is what the stream costs. Node, peer and destination are int32,
// the width of a topology node ID, so the record has no padding to spare.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 40 {
		t.Errorf("Record is %d bytes, want 40", got)
	}
}

// TestWriteNDJSONAllocs pins rendering at a constant number of
// allocations: a 10 000-record timeline costs what a 10-record one does.
func TestWriteNDJSONAllocs(t *testing.T) {
	timeline := func(n int) *Timeline {
		tl := make(Timeline, n)
		for i := range tl {
			tl[i] = Record{At: time.Duration(i) * time.Millisecond, Kind: Kind(i % int(numKinds)),
				Node: int32(i), Peer: int32(i + 1), Dst: int32(i + 2), Seed: int64(i), Rate: float64(i) / 7}
		}
		return &tl
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

// TestTimelineAppendDoubles pins the stream's growth: a full stream
// doubles its capacity, keeping every record in order.
func TestTimelineAppendDoubles(t *testing.T) {
	tl := NewTimeline()
	start := cap(*tl)
	for i := 0; i <= start; i++ {
		tl.Append(Record{Node: int32(i)})
	}
	if got := cap(*tl); got != 2*start {
		t.Errorf("capacity after %d appends = %d, want %d", start+1, got, 2*start)
	}
	tl.Append(make([]Record, 3*start)...)
	if got, want := cap(*tl), start+1+3*start; got != want {
		t.Errorf("capacity after a batch larger than the stream = %d, want %d", got, want)
	}
	for i := 0; i <= start; i++ {
		if (*tl)[i].Node != int32(i) {
			t.Fatalf("record %d holds node %d after growth", i, (*tl)[i].Node)
		}
	}
}
