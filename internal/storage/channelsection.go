package storage

import (
	"encoding/binary"
	"fmt"
)

// Channel-state section (unaligned checkpoints).
//
// An unaligned individual checkpoint appends one extra section to the v2
// blob carrying the tuples that were in flight on not-yet-tokened input
// edges when the HAU snapshotted. The section is self-describing so a
// restore can distinguish it from an operator section:
//
//	u32 magic = 0x4d534348 ("MSCH")
//	u32 nStreams
//	per stream:
//	  str16 label    (upstream HAU id the edge comes from)
//	  u32   count    (number of logged tuples)
//	  u32   len      (payload length in bytes)
//	  payload        (concatenated tuple encodings, tuple.MarshalMany)
//
// The payload bytes are opaque to this package: the SPE owns the tuple
// codec, storage owns the section framing — mirroring how the rest of the
// blob keeps section tables here and section contents above.

// ChannelSectionMagic marks a channel-state section inside a v2 blob.
const ChannelSectionMagic uint32 = 0x4d534348 // "MSCH"

// ChannelStream is one input edge's logged in-flight tuples, identified by
// the upstream HAU the edge comes from.
type ChannelStream struct {
	Label   string // upstream HAU id
	Count   int    // number of tuples in Payload
	Payload []byte // concatenated tuple encodings
}

// IsChannelSection reports whether b begins with the channel-state magic.
func IsChannelSection(b []byte) bool {
	return len(b) >= 4 && binary.LittleEndian.Uint32(b) == ChannelSectionMagic
}

// EncodeChannelSection serializes streams into a channel-state section.
func EncodeChannelSection(streams []ChannelStream) []byte {
	n := 8
	for _, s := range streams {
		n += 2 + len(s.Label) + 8 + len(s.Payload)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, ChannelSectionMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(streams)))
	for _, s := range streams {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(s.Label)))
		out = append(out, s.Label...)
		out = binary.LittleEndian.AppendUint32(out, uint32(s.Count))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Payload)))
		out = append(out, s.Payload...)
	}
	return out
}

// DecodeChannelSection parses a section produced by EncodeChannelSection.
// It rejects anything that does not carry the channel magic — in
// particular whole checkpoint blobs and operator sections — with a clear
// error.
func DecodeChannelSection(b []byte) ([]ChannelStream, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("storage: channel section too short (%d bytes)", len(b))
	}
	if !IsChannelSection(b) {
		return nil, fmt.Errorf("storage: not a channel-state section (magic %#x, want %#x)",
			binary.LittleEndian.Uint32(b), ChannelSectionMagic)
	}
	nStreams := int(binary.LittleEndian.Uint32(b[4:]))
	off := 8
	streams := make([]ChannelStream, 0, nStreams)
	for i := 0; i < nStreams; i++ {
		if len(b) < off+2 {
			return nil, fmt.Errorf("storage: channel stream %d: truncated label length", i)
		}
		ln := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if len(b) < off+ln+8 {
			return nil, fmt.Errorf("storage: channel stream %d: truncated header", i)
		}
		label := string(b[off : off+ln])
		off += ln
		count := int(binary.LittleEndian.Uint32(b[off:]))
		plen := int(binary.LittleEndian.Uint32(b[off+4:]))
		off += 8
		if plen < 0 || len(b) < off+plen {
			return nil, fmt.Errorf("storage: channel stream %d (%q): truncated payload (want %d bytes, have %d)",
				i, label, plen, len(b)-off)
		}
		streams = append(streams, ChannelStream{Label: label, Count: count, Payload: b[off : off+plen]})
		off += plen
	}
	if off != len(b) {
		return nil, fmt.Errorf("storage: channel section has %d trailing bytes", len(b)-off)
	}
	return streams, nil
}
