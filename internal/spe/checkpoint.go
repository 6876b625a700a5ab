package spe

import (
	"encoding/binary"
	"errors"
	"fmt"

	"meteorshower/internal/operator"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// HAU checkpoint blob, version 2 (little endian):
//
//	u32 magic 0x4d535632
//	u32 nSections
//	nSections x u32 sectionLen
//	section payloads, concatenated
//
// Section 0 is the runtime section; sections 1..N are the operators'
// snapshots in chain order. An unaligned checkpoint appends one optional
// channel-state section (storage.ChannelSectionMagic) after the operator
// sections, carrying the in-flight tuples logged while ports sealed.
// The runtime section layout:
//
//	u32 nOut;  nOut  x u64 outSeq
//	u32 nIn;   nIn   x u64 lastInSeq
//	nIn x { u32 nSrc; nSrc x { u16 len, src, u64 id } }  per-source IDs
//	u64 localEpoch
//	u32 nRetained; per retained: u32 port, u32 len, tuple bytes
//	u32 nLabels;  nLabels x { u16 len, upstream id }   (optional)
//
// The retained tuples are the in-flight tuples "between the incoming and
// the output tokens" (§III-B) that recovery must re-send downstream. The
// trailing label block names each input port's upstream incarnation
// (Edge.From) so restore can match ports by upstream identity when the
// HAU's input geometry changed across a rescale; the section is
// length-delimited, so restore finds the block by the bytes left after the
// retained tuples.
//
// RestoreFrom rejects any blob that does not begin with the magic. Every
// writer emits this layout and the checkpoint stores live only as long as
// the process, so no older layout can reach it.

var errShortSnapshot = errors.New("spe: short HAU snapshot")

// appendRuntimeState encodes the HAU's runtime counters and retained
// in-flight tuples (the runtime section) onto buf.
func (h *HAU) appendRuntimeState(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.outSeq)))
	for _, s := range h.outSeq {
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.lastInSeq)))
	for _, s := range h.lastInSeq {
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	for _, m := range h.lastSrcID {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m)))
		for src, id := range m {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(src)))
			buf = append(buf, src...)
			buf = binary.LittleEndian.AppendUint64(buf, id)
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, h.localEpoch)
	// pendingOut holds in-flight tuples restored from a snapshot but not yet
	// re-emitted (non-empty only before Start); encoding it alongside the
	// retained list keeps a restore -> snapshot round trip lossless.
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.retained)+len(h.pendingOut)))
	for _, rts := range [][]retainedTuple{h.retained, h.pendingOut} {
		for _, rt := range rts {
			enc := rt.t.Marshal()
			buf = binary.LittleEndian.AppendUint32(buf, uint32(rt.port))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(enc)))
			buf = append(buf, enc...)
		}
	}
	return buf
}

// appendInLabels encodes the input-port label block that ends the runtime
// section.
func (h *HAU) appendInLabels(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.inFrom)))
	for _, from := range h.inFrom {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(from)))
		buf = append(buf, from...)
	}
	return buf
}

// captureState takes the on-loop snapshot: the runtime section is encoded
// into a pooled buffer, and each operator either re-encodes (dirty, or no
// fast path) or contributes its cached section from the previous epoch.
// This is the entire freeze window — flatten, delta and I/O all run on the
// checkpoint writer. A failed operator snapshot aborts the whole capture so
// a torn checkpoint is never saved.
func (h *HAU) captureState() (*stateSnapshot, error) {
	snap := &stateSnapshot{sections: make([]*sectionBuf, 0, len(h.cfg.Ops)+1)}
	rt := getSection()
	rt.b = h.appendInLabels(h.appendRuntimeState(rt.b))
	snap.dirty += int64(len(rt.b))
	snap.sections = append(snap.sections, rt)
	for i, op := range h.cfg.Ops {
		sec, changed, err := h.captureOp(i, op)
		if err != nil {
			snap.release()
			return nil, err
		}
		if changed {
			snap.dirty += int64(len(sec.b))
		}
		snap.sections = append(snap.sections, sec)
	}
	return snap, nil
}

// captureOp encodes one operator's section. Incremental operators that
// report no change since their previous capture contribute the cached
// section; dirty ones encode into a fresh pooled buffer, which becomes the
// new cache entry (the old entry keeps serving any checkpoint still
// holding a reference to it).
func (h *HAU) captureOp(i int, op operator.Operator) (*sectionBuf, bool, error) {
	if inc, ok := op.(operator.IncrementalSnapshotter); ok {
		fresh := getSection()
		b, changed, err := inc.AppendSnapshot(fresh.b)
		if err != nil {
			fresh.release()
			return nil, false, fmt.Errorf("spe: snapshot of %s: %w", op.Name(), err)
		}
		fresh.b = b
		if cached := h.opSecs[i]; !changed && cached != nil {
			fresh.release()
			cached.retain()
			return cached, false, nil
		}
		if cached := h.opSecs[i]; cached != nil {
			cached.release()
		}
		fresh.retain() // the cache's reference
		h.opSecs[i] = fresh
		return fresh, true, nil
	}
	snap, err := op.Snapshot()
	if err != nil {
		return nil, false, fmt.Errorf("spe: snapshot of %s: %w", op.Name(), err)
	}
	return newSection(snap), true, nil
}

// encodeState captures and flattens the HAU state into one contiguous v2
// blob — the synchronous path used by migration drains and SnapshotNow.
func (h *HAU) encodeState() ([]byte, error) {
	snap, err := h.captureState()
	if err != nil {
		return nil, err
	}
	blob := snap.flatten()
	snap.release()
	return blob, nil
}

// RestoreFrom rebuilds the HAU from a version-2 checkpoint blob. Must be
// called before Start. Retained in-flight tuples are queued for
// re-emission when the loop starts.
func (h *HAU) RestoreFrom(blob []byte) error {
	r := reader{buf: blob}
	first, err := r.u32()
	if err != nil {
		return err
	}
	if first != snapshotMagic {
		return fmt.Errorf("spe: snapshot has no section-table header (first word %#x, want %#x)", first, snapshotMagic)
	}
	nSec, err := r.u32()
	if err != nil {
		return err
	}
	// len(Ops)+1 sections is the plain layout; an unaligned checkpoint
	// appends one channel-state section after the operator sections,
	// giving len(Ops)+2. Whether the extra section really is channel state
	// is checked by its magic below.
	hasChannel := int(nSec) == len(h.cfg.Ops)+2
	if int(nSec) != len(h.cfg.Ops)+1 && !hasChannel {
		return fmt.Errorf("spe: snapshot has %d sections, HAU wants %d", nSec, len(h.cfg.Ops)+1)
	}
	lens := make([]int, nSec)
	total := 0
	for i := range lens {
		n, err := r.u32()
		if err != nil {
			return err
		}
		lens[i] = int(n)
		total += int(n)
	}
	if total != len(r.buf) {
		return fmt.Errorf("%w: section table wants %d payload bytes, have %d", errShortSnapshot, total, len(r.buf))
	}
	rt := reader{buf: r.buf[:lens[0]]}
	if err := h.restoreRuntime(&rt); err != nil {
		return err
	}
	if len(rt.buf) != 0 {
		return fmt.Errorf("spe: %d trailing bytes in runtime section", len(rt.buf))
	}
	off := lens[0]
	for i, op := range h.cfg.Ops {
		sec := r.buf[off : off+lens[i+1]]
		off += lens[i+1]
		if len(sec) == 0 {
			sec = nil
		}
		if err := op.Restore(sec); err != nil {
			return fmt.Errorf("spe: restore of %s: %w", op.Name(), err)
		}
	}
	if hasChannel {
		sec := r.buf[off : off+lens[nSec-1]]
		if !storage.IsChannelSection(sec) {
			return fmt.Errorf("spe: snapshot has %d sections but the extra one is not channel state", nSec)
		}
		if err := h.restoreChannelState(sec); err != nil {
			return err
		}
	}
	return nil
}

// restoreChannelState decodes an unaligned checkpoint's channel-state
// section and queues the logged tuples for replay through the input path
// when the loop starts. Streams are matched to input ports by upstream
// label, consuming one port per stream so duplicate labels pair up in
// order.
func (h *HAU) restoreChannelState(sec []byte) error {
	streams, err := storage.DecodeChannelSection(sec)
	if err != nil {
		return fmt.Errorf("spe: %s channel state: %w", h.cfg.ID, err)
	}
	h.chanReplay = h.chanReplay[:0]
	used := make([]bool, len(h.inFrom))
	for _, s := range streams {
		port := -1
		for i, f := range h.inFrom {
			if !used[i] && f == s.Label {
				port = i
				break
			}
		}
		if port < 0 {
			return fmt.Errorf("spe: %s channel state for unknown upstream %q", h.cfg.ID, s.Label)
		}
		used[port] = true
		ts, err := tuple.UnmarshalMany(s.Payload)
		if err != nil {
			return fmt.Errorf("spe: %s channel state for %q: %w", h.cfg.ID, s.Label, err)
		}
		if len(ts) != s.Count {
			return fmt.Errorf("spe: %s channel state for %q: %d tuples, header says %d", h.cfg.ID, s.Label, len(ts), s.Count)
		}
		h.chanReplay = append(h.chanReplay, chanReplayStream{port: port, ts: ts})
	}
	return nil
}

// restoreRuntime decodes the runtime section from r. The section may end
// with an input-port label block; when it does and the blob's input
// geometry differs from the HAU's, ports are matched by upstream label
// instead of position — a replica restoring a carved blob has fresh input
// edges the base never had, and vice versa after a merge.
func (h *HAU) restoreRuntime(r *reader) error {
	nOut, err := r.u32()
	if err != nil {
		return err
	}
	if int(nOut) != len(h.outSeq) {
		return fmt.Errorf("spe: snapshot has %d out ports, HAU has %d", nOut, len(h.outSeq))
	}
	for i := range h.outSeq {
		if h.outSeq[i], err = r.u64(); err != nil {
			return err
		}
	}
	nIn, err := r.u32()
	if err != nil {
		return err
	}
	inSeq := make([]uint64, nIn)
	for i := range inSeq {
		if inSeq[i], err = r.u64(); err != nil {
			return err
		}
	}
	srcIDs := make([]map[string]uint64, nIn)
	for i := range srcIDs {
		nSrc, err := r.u32()
		if err != nil {
			return err
		}
		srcIDs[i] = make(map[string]uint64, nSrc)
		for j := uint32(0); j < nSrc; j++ {
			src, err := r.str16()
			if err != nil {
				return err
			}
			id, err := r.u64()
			if err != nil {
				return err
			}
			srcIDs[i][src] = id
		}
	}
	if h.localEpoch, err = r.u64(); err != nil {
		return err
	}
	nRet, err := r.u32()
	if err != nil {
		return err
	}
	h.pendingOut = h.pendingOut[:0]
	for i := uint32(0); i < nRet; i++ {
		port, err := r.u32()
		if err != nil {
			return err
		}
		enc, err := r.bytes()
		if err != nil {
			return err
		}
		t, _, err := tuple.Unmarshal(enc)
		if err != nil {
			return fmt.Errorf("spe: retained tuple %d: %w", i, err)
		}
		h.pendingOut = append(h.pendingOut, retainedTuple{port: int(port), t: t})
	}
	var labels []string
	labelsPresent := false
	if len(r.buf) > 0 {
		nLab, err := r.u32()
		if err != nil {
			return err
		}
		if nLab != nIn {
			return fmt.Errorf("spe: snapshot has %d in-port labels for %d in ports", nLab, nIn)
		}
		labels = make([]string, nLab)
		for i := range labels {
			if labels[i], err = r.str16(); err != nil {
				return err
			}
		}
		labelsPresent = true
	}
	byLabel := make(map[string]int, len(labels))
	for i, l := range labels {
		byLabel[l] = i
	}
	allFound := true
	for _, f := range h.inFrom {
		if _, ok := byLabel[f]; !ok {
			allFound = false
			break
		}
	}
	useLabels := labelsPresent && (int(nIn) != len(h.lastInSeq) || allFound)
	if !useLabels {
		if int(nIn) != len(h.lastInSeq) {
			return fmt.Errorf("spe: snapshot has %d in ports, HAU has %d", nIn, len(h.lastInSeq))
		}
		copy(h.lastInSeq, inSeq)
		copy(h.lastSrcID, srcIDs)
		return nil
	}
	for i, f := range h.inFrom {
		if j, ok := byLabel[f]; ok {
			h.lastInSeq[i] = inSeq[j]
			h.lastSrcID[i] = srcIDs[j]
		} else {
			// A fresh edge the blob never saw: sequence numbers restart.
			h.lastInSeq[i] = 0
			h.lastSrcID[i] = make(map[string]uint64)
		}
	}
	return nil
}

// SplitBlob splits a v2 checkpoint blob into its runtime section and
// per-operator sections, aliasing the blob's backing array. The cluster's
// rescale path carves and re-assembles blobs at this level without knowing
// any section's internal layout.
func SplitBlob(blob []byte) (runtime []byte, ops [][]byte, err error) {
	r := reader{buf: blob}
	magic, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if magic != snapshotMagic {
		return nil, nil, errors.New("spe: not a v2 snapshot blob")
	}
	nSec, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if nSec == 0 {
		return nil, nil, errors.New("spe: v2 snapshot with no sections")
	}
	lens := make([]int, nSec)
	total := 0
	for i := range lens {
		n, err := r.u32()
		if err != nil {
			return nil, nil, err
		}
		lens[i] = int(n)
		total += int(n)
	}
	if total != len(r.buf) {
		return nil, nil, fmt.Errorf("%w: section table wants %d payload bytes, have %d", errShortSnapshot, total, len(r.buf))
	}
	off := lens[0]
	runtime = r.buf[:off]
	ops = make([][]byte, nSec-1)
	for i := range ops {
		ops[i] = r.buf[off : off+lens[i+1]]
		off += lens[i+1]
	}
	return runtime, ops, nil
}

// BuildBlob assembles a v2 checkpoint blob from a runtime section and
// operator sections — the inverse of SplitBlob.
func BuildBlob(runtime []byte, ops [][]byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, snapshotMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ops)+1))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(runtime)))
	for _, op := range ops {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(op)))
	}
	buf = append(buf, runtime...)
	for _, op := range ops {
		buf = append(buf, op...)
	}
	return buf
}

// NewRuntimeSection synthesizes a runtime section for a freshly created
// rescale incarnation: nOut zeroed output counters, no inputs (the label
// block is present but empty, so a restore zero-fills whatever input ports
// the new HAU has), the given localEpoch, and no retained tuples.
func NewRuntimeSection(nOut int, localEpoch uint64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(nOut))
	buf = append(buf, make([]byte, 8*nOut)...)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // nIn
	buf = binary.LittleEndian.AppendUint64(buf, localEpoch)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // nRetained
	buf = binary.LittleEndian.AppendUint32(buf, 0) // nLabels
	return buf
}

// RuntimeEpoch extracts localEpoch from a runtime section.
func RuntimeEpoch(runtime []byte) (uint64, error) {
	r := reader{buf: runtime}
	nOut, err := r.u32()
	if err != nil {
		return 0, err
	}
	for i := uint32(0); i < nOut; i++ {
		if _, err := r.u64(); err != nil {
			return 0, err
		}
	}
	nIn, err := r.u32()
	if err != nil {
		return 0, err
	}
	for i := uint32(0); i < nIn; i++ {
		if _, err := r.u64(); err != nil {
			return 0, err
		}
	}
	for i := uint32(0); i < nIn; i++ {
		nSrc, err := r.u32()
		if err != nil {
			return 0, err
		}
		for j := uint32(0); j < nSrc; j++ {
			if _, err := r.str16(); err != nil {
				return 0, err
			}
			if _, err := r.u64(); err != nil {
				return 0, err
			}
		}
	}
	return r.u64()
}

// SnapshotNow serializes the HAU state outside the protocol — used by
// tests and by recovery verification tooling. Only safe when the HAU loop
// is not running. Returns nil if an operator snapshot fails.
func (h *HAU) SnapshotNow() []byte {
	blob, err := h.encodeState()
	if err != nil {
		h.setErr(err)
		return nil
	}
	return blob
}

type reader struct {
	buf []byte
}

func (r *reader) u32() (uint32, error) {
	if len(r.buf) < 4 {
		return 0, errShortSnapshot
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, errShortSnapshot
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

func (r *reader) str16() (string, error) {
	if len(r.buf) < 2 {
		return "", errShortSnapshot
	}
	n := int(binary.LittleEndian.Uint16(r.buf))
	r.buf = r.buf[2:]
	if len(r.buf) < n {
		return "", errShortSnapshot
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if len(r.buf) < int(n) {
		return nil, errShortSnapshot
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out, nil
}
