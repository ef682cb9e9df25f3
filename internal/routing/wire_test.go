package routing

import (
	"testing"
	"testing/quick"
)

func TestVectorUpdateRoundTrip(t *testing.T) {
	cfg := DefaultVectorConfig()
	u := cfg.PackEntries([]VectorEntry{
		{Dst: 0, Metric: 0},
		{Dst: 7, Metric: 3},
		{Dst: 48, Metric: 16},
	})[0]
	got, err := DecodeVectorUpdate(u.Encode(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(u.Entries) {
		t.Fatalf("round trip: %d entries, want %d", len(got.Entries), len(u.Entries))
	}
	for i := range u.Entries {
		if got.Entries[i] != u.Entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got.Entries[i], u.Entries[i])
		}
	}
	if got.SizeBytes() != u.SizeBytes() {
		t.Errorf("round trip changed SizeBytes: %d → %d", u.SizeBytes(), got.SizeBytes())
	}
}

func TestVectorUpdateEmpty(t *testing.T) {
	cfg := DefaultVectorConfig()
	u := &VectorUpdate{header: cfg.HeaderBytes, entry: cfg.EntryBytes}
	got, err := DecodeVectorUpdate(u.Encode(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 0 {
		t.Errorf("empty update decoded to %d entries", len(got.Entries))
	}
}

// TestWireSizeModel pins the analytic size model to the actual encoding:
// SizeBytes = len(Encode()) + UDP/IP overhead.
func TestWireSizeModel(t *testing.T) {
	cfg := DefaultVectorConfig()
	for _, n := range []int{0, 1, 10, 25} {
		entries := make([]VectorEntry, n)
		for i := range entries {
			entries[i] = VectorEntry{Dst: NodeID(i), Metric: int32(i % 17)}
		}
		u := &VectorUpdate{Entries: entries, header: cfg.HeaderBytes, entry: cfg.EntryBytes}
		if got, want := u.SizeBytes(), len(u.Encode())+UDPIPOverhead; got != want {
			t.Errorf("%d entries: SizeBytes = %d, encoded+overhead = %d", n, got, want)
		}
	}
}

func TestDecodeVectorUpdateErrors(t *testing.T) {
	cfg := DefaultVectorConfig()
	good := (&VectorUpdate{Entries: []VectorEntry{{Dst: 1, Metric: 2}}, header: 32, entry: 20}).Encode()

	cases := map[string][]byte{
		"too short":   good[:2],
		"bad command": append([]byte{9}, good[1:]...),
		"bad version": {ripCommandResponse, 9, 0, 0},
		"ragged body": good[:len(good)-3],
		"bad AFI":     concat(good[:4], []byte{0, 9}, good[6:]...),
		"over limit":  overLimitPayload(&cfg),
		"metric -1":   metricPayload(-1),
		"metric 17":   metricPayload(int32(cfg.Infinity) + 1),
	}
	for name, buf := range cases {
		if _, err := DecodeVectorUpdate(buf, &cfg); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func concat(a, b []byte, rest ...byte) []byte {
	out := append([]byte{}, a...)
	out = append(out, b...)
	return append(out, rest...)
}

// metricPayload encodes a one-entry update carrying metric as its
// unsigned 32-bit wire value (-1 is 0xFFFFFFFF).
func metricPayload(metric int32) []byte {
	return (&VectorUpdate{Entries: []VectorEntry{{Dst: 1, Metric: metric}}, header: 32, entry: 20}).Encode()
}

func overLimitPayload(cfg *VectorConfig) []byte {
	entries := make([]VectorEntry, cfg.MaxEntries+1)
	for i := range entries {
		entries[i] = VectorEntry{Dst: NodeID(i)}
	}
	return (&VectorUpdate{Entries: entries, header: 32, entry: 20}).Encode()
}

// Property: any update round-trips losslessly.
func TestPropertyVectorUpdateRoundTrip(t *testing.T) {
	cfg := DefaultVectorConfig()
	f := func(dsts []uint16, metrics []uint8) bool {
		n := len(dsts)
		if len(metrics) < n {
			n = len(metrics)
		}
		if n > cfg.MaxEntries {
			n = cfg.MaxEntries
		}
		entries := make([]VectorEntry, n)
		for i := 0; i < n; i++ {
			entries[i] = VectorEntry{Dst: NodeID(dsts[i]), Metric: int32(metrics[i]) % 17}
		}
		u := &VectorUpdate{Entries: entries, header: cfg.HeaderBytes, entry: cfg.EntryBytes}
		got, err := DecodeVectorUpdate(u.Encode(), &cfg)
		if err != nil {
			return false
		}
		if len(got.Entries) != n {
			return false
		}
		for i := range entries {
			if got.Entries[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
