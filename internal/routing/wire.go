package routing

import (
	"encoding/binary"
	"fmt"
)

// Wire format (RFC 2453): a 4-byte header (command, version, zero) followed
// by 20-byte route entries (AFI, route tag, address, mask, next hop,
// metric). Node IDs map onto 10.0.0.0/8 host addresses. The VectorConfig
// size model (HeaderBytes = 4 + 28 bytes of UDP/IP, EntryBytes = 20)
// matches this encoding exactly; TestWireSizeModel pins that.
const (
	ripCommandResponse = 2
	ripVersion         = 2
	ripHeaderLen       = 4
	ripEntryLen        = 20
	ripAFIInet         = 2
	// UDPIPOverhead is the transport framing a RIP payload rides in.
	UDPIPOverhead = 28
)

// addrForNode maps a node ID into 10.0.0.0/8.
func addrForNode(id NodeID) uint32 { return 0x0A00_0000 | uint32(id)&0x00FF_FFFF }

// nodeForAddr inverts addrForNode.
func nodeForAddr(addr uint32) NodeID { return NodeID(addr & 0x00FF_FFFF) }

// Encode renders the update as an RFC 2453 RIP response payload.
func (u *VectorUpdate) Encode() []byte {
	n := u.Len()
	buf := make([]byte, ripHeaderLen+ripEntryLen*n)
	buf[0] = ripCommandResponse
	buf[1] = ripVersion
	for i := 0; i < n; i++ {
		e := u.EntryAt(i)
		off := ripHeaderLen + i*ripEntryLen
		binary.BigEndian.PutUint16(buf[off:], ripAFIInet)
		// Route tag (2 bytes) stays zero.
		binary.BigEndian.PutUint32(buf[off+4:], addrForNode(e.Dst))
		binary.BigEndian.PutUint32(buf[off+8:], 0xFFFF_FFFF) // host mask
		// Next hop (4 bytes) stays zero: "use the sender".
		binary.BigEndian.PutUint32(buf[off+16:], uint32(e.Metric))
	}
	return buf
}

// DecodeVectorUpdate parses an RFC 2453 RIP response payload. The returned
// update carries the given size model so SizeBytes matches the original.
func DecodeVectorUpdate(buf []byte, cfg *VectorConfig) (*VectorUpdate, error) {
	if len(buf) < ripHeaderLen {
		return nil, fmt.Errorf("routing: RIP payload too short (%d bytes)", len(buf))
	}
	if buf[0] != ripCommandResponse {
		return nil, fmt.Errorf("routing: unsupported RIP command %d", buf[0])
	}
	if buf[1] != ripVersion {
		return nil, fmt.Errorf("routing: unsupported RIP version %d", buf[1])
	}
	body := buf[ripHeaderLen:]
	if len(body)%ripEntryLen != 0 {
		return nil, fmt.Errorf("routing: RIP body length %d not a multiple of %d", len(body), ripEntryLen)
	}
	n := len(body) / ripEntryLen
	if n > cfg.MaxEntries {
		return nil, fmt.Errorf("routing: %d entries exceeds the %d-entry limit", n, cfg.MaxEntries)
	}
	u := &VectorUpdate{
		Entries: make([]VectorEntry, n),
		header:  cfg.HeaderBytes,
		entry:   cfg.EntryBytes,
	}
	for i := 0; i < n; i++ {
		off := i * ripEntryLen
		if afi := binary.BigEndian.Uint16(body[off:]); afi != ripAFIInet {
			return nil, fmt.Errorf("routing: entry %d has AFI %d, want %d", i, afi, ripAFIInet)
		}
		metric := binary.BigEndian.Uint32(body[off+16:])
		if metric > uint32(cfg.Infinity) {
			return nil, fmt.Errorf("routing: entry %d has metric %d outside [0, %d]", i, metric, cfg.Infinity)
		}
		u.Entries[i] = VectorEntry{
			Dst:    nodeForAddr(binary.BigEndian.Uint32(body[off+4:])),
			Metric: int32(metric),
		}
	}
	return u, nil
}
