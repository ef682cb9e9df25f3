package routing

import (
	"bytes"
	"testing"
)

// FuzzDecodeVectorUpdate checks that the RIP decoder never panics on
// arbitrary input and that anything it accepts re-encodes canonically.
func FuzzDecodeVectorUpdate(f *testing.F) {
	cfg := DefaultVectorConfig()
	f.Add([]byte{})
	f.Add((&VectorUpdate{header: cfg.HeaderBytes, entry: cfg.EntryBytes}).Encode())
	f.Add((&VectorUpdate{
		Entries: []VectorEntry{{Dst: 1, Metric: 2}, {Dst: 50, Metric: 16}},
		header:  cfg.HeaderBytes,
		entry:   cfg.EntryBytes,
	}).Encode())
	f.Add(metricPayload(-1)) // 0xFFFFFFFF: must be rejected, not read as -1
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeVectorUpdate(data, &cfg)
		if err != nil {
			return
		}
		for i, e := range u.Entries {
			if e.Metric < 0 || int(e.Metric) > cfg.Infinity {
				t.Fatalf("entry %d accepted with metric %d outside [0, %d]", i, e.Metric, cfg.Infinity)
			}
		}
		// Accepted input must round-trip to itself (the encoding writes
		// canonical values for the fields the decoder reads).
		again, err := DecodeVectorUpdate(u.Encode(), &cfg)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again.Entries) != len(u.Entries) {
			t.Fatalf("entries %d → %d across round trip", len(u.Entries), len(again.Entries))
		}
		for i := range u.Entries {
			if again.Entries[i] != u.Entries[i] {
				t.Fatalf("entry %d changed: %+v → %+v", i, u.Entries[i], again.Entries[i])
			}
		}
	})
}

// FuzzEncodeStability: encoding is a pure function.
func FuzzEncodeStability(f *testing.F) {
	f.Add(uint16(3), uint8(7))
	f.Fuzz(func(t *testing.T, dst uint16, metric uint8) {
		cfg := DefaultVectorConfig()
		u := &VectorUpdate{
			Entries: []VectorEntry{{Dst: NodeID(dst), Metric: int32(metric)}},
			header:  cfg.HeaderBytes,
			entry:   cfg.EntryBytes,
		}
		if !bytes.Equal(u.Encode(), u.Encode()) {
			t.Fatal("Encode is not deterministic")
		}
	})
}
