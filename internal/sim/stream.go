package sim

import (
	"math"
	"time"
)

// Stream is a small independent deterministic random stream (splitmix64).
//
// The Simulator's shared Rand ties every random draw to global event
// execution order, which a sharded run cannot reproduce: shards interleave
// events differently than one sequential loop. Per-entity streams break
// that coupling — each node or traffic source draws from its own stream
// seeded by (simulator seed, entity ID), so the sequence it sees depends
// only on its own event order, which sharding preserves. The zero value is
// a valid (all-zeros-seeded) stream, but callers should use NewStream.
type Stream struct {
	state uint64
}

// NewStream derives an independent stream from a simulator seed and a
// stable per-entity identifier (node ID, flow index, ...). The same
// (seed, id) pair always yields the same sequence.
func NewStream(seed int64, id uint64) Stream {
	st := Stream{state: uint64(seed) ^ (id+1)*0x9e3779b97f4a7c15}
	// Burn two outputs so nearby (seed, id) pairs decorrelate.
	st.next()
	st.next()
	return st
}

// next advances the splitmix64 state and returns the next 64-bit output.
func (st *Stream) next() uint64 {
	st.state += 0x9e3779b97f4a7c15
	z := st.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64-bit value from the stream.
func (st *Stream) Uint64() uint64 { return st.next() }

// Int63n returns a value in [0, n). It panics if n <= 0. The modulo bias
// is negligible for the interval sizes used by the models (n ≪ 2⁶³).
func (st *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(st.next() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (st *Stream) Float64() float64 {
	return float64(st.next()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed duration with the given mean,
// at least 1 ns so a process scheduled by it always advances.
func (st *Stream) Exp(mean time.Duration) time.Duration {
	d := time.Duration(-math.Log(1-st.Float64()) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Jitter returns a duration uniform on [lo, hi], mirroring
// Simulator.Jitter but drawing from this stream.
func (st *Stream) Jitter(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(st.Int63n(int64(hi-lo)+1))
}
