package spe

import (
	"encoding/binary"
	"testing"

	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// appendBlobSection rewrites a v2 blob's section table with one extra
// section appended — the shape an unaligned checkpoint's channel-state
// section arrives in.
func appendBlobSection(blob, sec []byte) []byte {
	nSec := binary.LittleEndian.Uint32(blob[4:])
	out := append([]byte(nil), blob[:4]...)
	out = binary.LittleEndian.AppendUint32(out, nSec+1)
	out = append(out, blob[8:8+4*nSec]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sec)))
	out = append(out, blob[8+4*nSec:]...)
	return append(out, sec...)
}

// FuzzRestoreFrom throws arbitrary bytes at the snapshot decoder. The
// corpus seeds one valid blob, a blob in the retired headerless layout
// (which must be rejected) and a few near-misses. The decoder may reject
// anything, but it must never panic, and anything it accepts must
// re-encode and restore again with the same runtime counters.
func FuzzRestoreFrom(f *testing.F) {
	src := mkRestorable(f)
	src.outSeq[0] = 5
	src.lastInSeq[0] = 3
	src.lastSrcID[0]["S"] = 9
	src.retained = []retainedTuple{{port: 0, t: tuple.New(1, "S", "k", []byte("x"))}}
	v2 := src.SnapshotNow()
	if v2 == nil {
		f.Fatal(src.Err())
	}

	// The retired headerless layout: runtime section, op count,
	// length-prefixed op snapshot.
	v1 := src.appendRuntimeState(nil)
	opSnap, err := src.cfg.Ops[0].Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(opSnap)))
	v1 = append(v1, opSnap...)
	if err := mkRestorable(f).RestoreFrom(v1); err == nil {
		f.Fatal("headerless blob accepted")
	}

	f.Add(v2)
	f.Add(v1)
	f.Add(v2[:len(v2)/2])
	f.Add([]byte{})
	// Valid magic, absurd section count.
	bad := append([]byte(nil), v2[:8]...)
	binary.LittleEndian.PutUint32(bad[4:], 1<<30)
	f.Add(bad)
	// Unaligned-checkpoint layout: a non-empty channel-state section after
	// the operator sections, labelled with the real upstream.
	chTup := tuple.New(7, "S", "k", []byte("ch"))
	chTup.Seq = 4
	chSec := storage.EncodeChannelSection([]storage.ChannelStream{
		{Label: "a", Count: 1, Payload: tuple.MarshalMany([]*tuple.Tuple{chTup})},
	})
	f.Add(appendBlobSection(v2, chSec))
	// Extra section without the channel magic: must be rejected, not read
	// as an operator's.
	f.Add(appendBlobSection(v2, []byte("not a channel section")))
	// Channel section with a label no input port matches.
	f.Add(appendBlobSection(v2, storage.EncodeChannelSection([]storage.ChannelStream{
		{Label: "nobody", Count: 0, Payload: nil},
	})))
	// Channel magic but garbage behind it.
	f.Add(appendBlobSection(v2, binary.LittleEndian.AppendUint32(nil, storage.ChannelSectionMagic)))

	f.Fuzz(func(t *testing.T, data []byte) {
		h := mkRestorable(t)
		if err := h.RestoreFrom(data); err != nil {
			return
		}
		re := h.SnapshotNow()
		if re == nil {
			t.Fatalf("accepted blob failed to re-snapshot: %v", h.Err())
		}
		h2 := mkRestorable(t)
		if err := h2.RestoreFrom(re); err != nil {
			t.Fatalf("re-encoded blob rejected: %v", err)
		}
		if h2.outSeq[0] != h.outSeq[0] || h2.lastInSeq[0] != h.lastInSeq[0] ||
			h2.localEpoch != h.localEpoch || len(h2.pendingOut) != len(h.pendingOut) {
			t.Fatal("runtime state did not survive re-encoding")
		}
	})
}
