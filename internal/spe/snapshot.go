package spe

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// snapshotMagic marks a version-2 section-table checkpoint blob, the only
// layout RestoreFrom accepts.
const snapshotMagic uint32 = 0x4d535632 // "MSV2"

// sectionBuf is a reference-counted encode buffer holding one section of a
// checkpoint blob. Sections are shared between the HAU's per-operator cache
// and any in-flight checkpoint snapshots, so a buffer returns to the pool
// only when the last holder releases it — and a dirty re-encode always goes
// into a fresh buffer, never into one a previous epoch may still be
// flattening.
type sectionBuf struct {
	b      []byte
	refs   atomic.Int32
	pooled bool
}

var sectionPool = sync.Pool{New: func() any { return &sectionBuf{pooled: true} }}

// getSection returns an empty pooled buffer with one reference.
func getSection() *sectionBuf {
	s := sectionPool.Get().(*sectionBuf)
	s.b = s.b[:0]
	s.refs.Store(1)
	return s
}

// newSection wraps caller-owned bytes (the Snapshot() fallback path) with
// one reference. It never returns to the pool.
func newSection(b []byte) *sectionBuf {
	s := &sectionBuf{b: b}
	s.refs.Store(1)
	return s
}

func (s *sectionBuf) retain() { s.refs.Add(1) }

func (s *sectionBuf) release() {
	if s.refs.Add(-1) == 0 && s.pooled {
		sectionPool.Put(s)
	}
}

// stateSnapshot is the on-loop capture of an HAU's state: the runtime
// section (counters, retained tuples) plus one section per operator, each
// either freshly encoded or a retained reference to the cached encoding of
// an unchanged operator. Capturing is the freeze window; flattening into a
// contiguous blob happens off-loop on the checkpoint writer.
type stateSnapshot struct {
	sections []*sectionBuf
	dirty    int64 // bytes re-encoded during capture
}

// flatLen returns the length of the flattened blob.
func (s *stateSnapshot) flatLen() int {
	n := 8 + 4*len(s.sections)
	for _, sec := range s.sections {
		n += len(sec.b)
	}
	return n
}

// flatten serializes the snapshot into a fresh contiguous v2 blob:
//
//	u32 magic; u32 nSections; nSections x u32 sectionLen; payloads
//
// The result is newly allocated and never pooled, so it can be handed to
// the store and kept as the delta base without copies.
func (s *stateSnapshot) flatten() []byte {
	out := make([]byte, 0, s.flatLen())
	out = binary.LittleEndian.AppendUint32(out, snapshotMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.sections)))
	for _, sec := range s.sections {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(sec.b)))
	}
	for _, sec := range s.sections {
		out = append(out, sec.b...)
	}
	return out
}

// release drops the snapshot's section references.
func (s *stateSnapshot) release() {
	for i, sec := range s.sections {
		sec.release()
		s.sections[i] = nil
	}
	s.sections = nil
}
