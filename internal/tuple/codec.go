package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary wire/storage format (little endian):
//
//	magic   uint16 = 0x4d53 ("MS")
//	flags   uint8  (bit0: has token)
//	id      uint64
//	seq     uint64
//	ts      int64
//	src     len-prefixed string (uint16)
//	key     len-prefixed string (uint16)
//	data    len-prefixed bytes  (uint32)
//	[token] epoch uint64, kind uint8, from len-prefixed string (uint16)
//
// The codec is used by the preservation logs and the checkpoint files, so a
// round-trip must be loss-free; see TestMarshalRoundTrip and the
// testing/quick property in codec_test.go.

const magic uint16 = 0x4d53

var (
	// ErrShortBuffer reports a truncated encoding.
	ErrShortBuffer = errors.New("tuple: short buffer")
	// ErrBadMagic reports a buffer that does not start with a tuple.
	ErrBadMagic = errors.New("tuple: bad magic")
)

// MarshalledSize returns the exact number of bytes Marshal will produce.
func (t *Tuple) MarshalledSize() int {
	n := 2 + 1 + 8 + 8 + 8 + 2 + len(t.Src) + 2 + len(t.Key) + 4 + len(t.Data)
	if t.Tok != nil {
		n += 8 + 1 + 2 + len(t.Tok.From)
	}
	return n
}

// Marshal encodes t into a fresh byte slice.
func (t *Tuple) Marshal() []byte {
	buf := make([]byte, 0, t.MarshalledSize())
	return t.AppendMarshal(buf)
}

// AppendMarshal appends the encoding of t to buf and returns the result.
func (t *Tuple) AppendMarshal(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, magic)
	var flags uint8
	if t.Tok != nil {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, t.ID)
	buf = binary.LittleEndian.AppendUint64(buf, t.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Ts))
	buf = appendString16(buf, t.Src)
	buf = appendString16(buf, t.Key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Data)))
	buf = append(buf, t.Data...)
	if t.Tok != nil {
		buf = binary.LittleEndian.AppendUint64(buf, t.Tok.Epoch)
		buf = append(buf, uint8(t.Tok.Kind))
		buf = appendString16(buf, t.Tok.From)
	}
	return buf
}

// Unmarshal decodes one tuple from the front of buf and returns it together
// with the number of bytes consumed. The payload is copied, so the caller
// may reuse buf afterwards.
func Unmarshal(buf []byte) (*Tuple, int, error) {
	t := &Tuple{}
	n, err := t.UnmarshalShared(buf, "")
	if err != nil {
		return nil, 0, err
	}
	if t.Data != nil {
		t.Data = append([]byte(nil), t.Data...)
	}
	return t, n, nil
}

// UnmarshalShared decodes one tuple from the front of buf into t,
// overwriting every field, and returns the number of bytes consumed. It is
// the codec's one decoder. t.Data aliases buf (capacity-clipped, so an
// append never writes into the next encoding): buf must stay immutable for
// as long as t or any copy of its payload lives. When the encoded source
// id equals src, t.Src is src itself instead of a fresh string. On error
// t's contents are unspecified.
func (t *Tuple) UnmarshalShared(buf []byte, src string) (int, error) {
	if len(buf) < 3 {
		return 0, ErrShortBuffer
	}
	if binary.LittleEndian.Uint16(buf) != magic {
		return 0, ErrBadMagic
	}
	flags := buf[2]
	off := 3
	if len(buf) < off+24 {
		return 0, ErrShortBuffer
	}
	t.ID = binary.LittleEndian.Uint64(buf[off:])
	t.Seq = binary.LittleEndian.Uint64(buf[off+8:])
	t.Ts = int64(binary.LittleEndian.Uint64(buf[off+16:]))
	off += 24
	var err error
	if t.Src, off, err = readString16(buf, off, src); err != nil {
		return 0, err
	}
	if t.Key, off, err = readString16(buf, off, ""); err != nil {
		return 0, err
	}
	if len(buf) < off+4 {
		return 0, ErrShortBuffer
	}
	dlen := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if len(buf) < off+dlen {
		return 0, ErrShortBuffer
	}
	t.Data = nil
	if dlen > 0 {
		t.Data = buf[off : off+dlen : off+dlen]
	}
	off += dlen
	t.Tok = nil
	if flags&1 != 0 {
		if len(buf) < off+9 {
			return 0, ErrShortBuffer
		}
		tok := &Token{}
		tok.Epoch = binary.LittleEndian.Uint64(buf[off:])
		tok.Kind = TokenKind(buf[off+8])
		off += 9
		if tok.From, off, err = readString16(buf, off, ""); err != nil {
			return 0, err
		}
		t.Tok = tok
	}
	return off, nil
}

// MarshalMany concatenates the encodings of ts.
func MarshalMany(ts []*Tuple) []byte {
	var n int
	for _, t := range ts {
		n += t.MarshalledSize()
	}
	buf := make([]byte, 0, n)
	for _, t := range ts {
		buf = t.AppendMarshal(buf)
	}
	return buf
}

// UnmarshalMany decodes a concatenation produced by MarshalMany.
func UnmarshalMany(buf []byte) ([]*Tuple, error) {
	var out []*Tuple
	for len(buf) > 0 {
		t, n, err := Unmarshal(buf)
		if err != nil {
			return nil, fmt.Errorf("tuple %d: %w", len(out), err)
		}
		out = append(out, t)
		buf = buf[n:]
	}
	return out, nil
}

func appendString16(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// readString16 reads a length-prefixed string at off. An encoding equal to
// known returns known itself, so a caller that expects a repeated value
// (a source log's own id) pays no allocation for it.
func readString16(buf []byte, off int, known string) (string, int, error) {
	if len(buf) < off+2 {
		return "", off, ErrShortBuffer
	}
	n := int(binary.LittleEndian.Uint16(buf[off:]))
	off += 2
	if len(buf) < off+n {
		return "", off, ErrShortBuffer
	}
	b := buf[off : off+n]
	if string(b) == known {
		return known, off + n, nil
	}
	return string(b), off + n, nil
}
