package ls

import (
	"encoding/binary"
	"fmt"

	"routeconv/internal/routing"
)

// The LSA wire codec, kept as the test oracle for the size model: no trial
// encodes a message, but TestWireSizeModel pins SizeBytes to the length of
// this encoding, and the fuzz target exercises it.
//
// Wire format (an OSPF-flavoured router LSA):
//
//	type     1 byte (1 = router LSA)
//	flags    1 byte
//	count    2 bytes — number of listed neighbors
//	origin   4 bytes
//	seq      8 bytes
//	checksum 4 bytes
//	options  4 bytes
//	then 4 bytes per neighbor
//
// 24 bytes of LSA header plus 20 bytes of IP framing equals the package's
// headerBytes size model.
const lsaTypeRouter = 1

// Encode renders the flood's LSA as a router-LSA payload.
func (f *Flood) Encode() []byte {
	l := f.LSA
	buf := make([]byte, lsaHeaderLen+neighborBytes*len(l.Neighbors))
	buf[0] = lsaTypeRouter
	binary.BigEndian.PutUint16(buf[2:], uint16(len(l.Neighbors)))
	binary.BigEndian.PutUint32(buf[4:], uint32(l.Origin))
	binary.BigEndian.PutUint64(buf[8:], l.Seq)
	binary.BigEndian.PutUint32(buf[16:], checksum(buf[:16]))
	for i, n := range l.Neighbors {
		binary.BigEndian.PutUint32(buf[lsaHeaderLen+4*i:], uint32(n))
	}
	return buf
}

// DecodeFlood parses a payload produced by Encode.
func DecodeFlood(buf []byte) (*Flood, error) {
	if len(buf) < lsaHeaderLen {
		return nil, fmt.Errorf("ls: LSA too short (%d bytes)", len(buf))
	}
	if buf[0] != lsaTypeRouter {
		return nil, fmt.Errorf("ls: unsupported LSA type %d", buf[0])
	}
	count := int(binary.BigEndian.Uint16(buf[2:]))
	if want := lsaHeaderLen + neighborBytes*count; len(buf) != want {
		return nil, fmt.Errorf("ls: LSA length %d, want %d for %d neighbors", len(buf), want, count)
	}
	if got := binary.BigEndian.Uint32(buf[16:]); got != checksum(buf[:16]) {
		return nil, fmt.Errorf("ls: LSA checksum mismatch")
	}
	f := &Flood{LSA: LSA{
		Origin: routing.NodeID(binary.BigEndian.Uint32(buf[4:])),
		Seq:    binary.BigEndian.Uint64(buf[8:]),
	}}
	if count > 0 {
		f.LSA.Neighbors = make([]routing.NodeID, count)
		for i := range f.LSA.Neighbors {
			f.LSA.Neighbors[i] = routing.NodeID(binary.BigEndian.Uint32(buf[lsaHeaderLen+4*i:]))
		}
	}
	return f, nil
}

// checksum is a simple 32-bit additive checksum over the header fields.
func checksum(b []byte) uint32 {
	var sum uint32
	for _, x := range b {
		sum = sum*31 + uint32(x)
	}
	return sum
}
