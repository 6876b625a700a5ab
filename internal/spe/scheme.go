// Package spe implements the Stream Processing Engine: the HAU (High
// Availability Unit) runtime that executes operators, aligns checkpoint
// tokens, performs synchronous or parallel-asynchronous individual
// checkpoints, and supports recovery (paper §III).
//
// Each HAU runs as one goroutine; edges between HAUs are buffered channels
// (in-order, lossless, bounded — matching the paper's TCP assumptions and
// providing natural backpressure).
package spe

import "time"

// Scheme selects the fault-tolerance protocol an HAU participates in.
type Scheme uint8

const (
	// Baseline is the paper's state-of-the-art reference (§II-B3):
	// independent periodic checkpoints at random phases, input
	// preservation at every HAU, synchronous checkpointing.
	Baseline Scheme = iota
	// MSSrc is basic Meteor Shower (§III-A): source preservation and
	// cascading tokens, synchronous individual checkpoints.
	MSSrc
	// MSSrcAP adds parallel, asynchronous checkpointing (§III-B): 1-hop
	// tokens broadcast by the controller, copy-on-write-style snapshots
	// written by a helper goroutine.
	MSSrcAP
	// MSSrcAPAA adds application-aware checkpoint timing (§III-C). The
	// HAU behaves exactly as MSSrcAP; the difference is in when the
	// controller fires checkpoints, plus turning-point reporting.
	MSSrcAPAA
	// MSSrcAPU replaces token alignment with unaligned checkpoints (after
	// "Lightweight Asynchronous Snapshots for Distributed Dataflows"): on
	// the first token (or the controller command) the HAU snapshots its
	// state immediately and, instead of pausing tokened ports, logs the
	// tuples still in flight on not-yet-tokened input edges into a
	// channel-state section of the blob, sealing each port when its token
	// lands. Restore replays the logged tuples before resuming.
	MSSrcAPU
)

func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case MSSrc:
		return "MS-src"
	case MSSrcAP:
		return "MS-src+ap"
	case MSSrcAPAA:
		return "MS-src+ap+aa"
	case MSSrcAPU:
		return "MS-src+ap+unaligned"
	default:
		return "unknown-scheme"
	}
}

// UsesTokens reports whether the scheme coordinates checkpoints by tokens.
func (s Scheme) UsesTokens() bool { return s != Baseline }

// OneHopTokens reports whether tokens are 1-hop (controller-broadcast)
// rather than cascading from sources.
func (s Scheme) OneHopTokens() bool { return s == MSSrcAP || s == MSSrcAPAA || s == MSSrcAPU }

// Asynchronous reports whether individual checkpoints overlap processing.
func (s Scheme) Asynchronous() bool { return s == MSSrcAP || s == MSSrcAPAA || s == MSSrcAPU }

// ApplicationAware reports whether checkpoint timing tracks state size.
func (s Scheme) ApplicationAware() bool { return s == MSSrcAPAA }

// Unaligned reports whether the scheme logs in-flight channel tuples
// instead of stalling on token alignment.
func (s Scheme) Unaligned() bool { return s == MSSrcAPU }

// CommandKind enumerates controller-to-HAU commands.
type CommandKind uint8

const (
	// CmdCheckpoint starts a checkpoint epoch. For MS-src it is sent to
	// source HAUs only; for MS-src+ap(+aa) it is broadcast to every HAU.
	CmdCheckpoint CommandKind = iota
	// CmdAlertOn/Off toggle alert mode: while on, the HAU actively
	// reports turning points with ICR (§III-C3).
	CmdAlertOn
	CmdAlertOff
	// CmdReportAll makes the HAU report every turning point regardless of
	// alert mode — the profiling phase.
	CmdReportAll
	// CmdReportNormal restores passive reporting (only halvings).
	CmdReportNormal
	// CmdSwapOutEdge replaces one output edge (baseline recovery rewires
	// the restarted neighbour's input channel).
	CmdSwapOutEdge
	// CmdReplayOutput re-sends the preserved tuples of one output port
	// (baseline recovery).
	CmdReplayOutput
	// CmdMigrateOut diverts one output port to a new edge during a live
	// migration of the downstream HAU: the pending batch is flushed to the
	// OLD edge, a migration token is appended and flushed after it, and
	// only then does the port switch to the new edge. Unlike
	// CmdSwapOutEdge nothing is dropped — under token schemes there is no
	// preserver to replay in-flight tuples from.
	CmdMigrateOut
	// CmdMigrateSnap arms the receiving HAU for migration: once every
	// input port has seen a migration token (or closed), it flushes its
	// outputs, serializes its state onto Reply, and exits cleanly. Source
	// HAUs have no inputs and snapshot immediately.
	CmdMigrateSnap
	// CmdRescaleOut replaces one logical output port's edge set during a
	// split or merge of the downstream HAU. Like CmdMigrateOut, every OLD
	// edge of the port gets its pending batch flushed followed by a
	// migration token (so each old downstream incarnation can drain); then
	// the port switches to the new edge set with the given key router.
	// Sequence counters for the new edges start at zero.
	CmdRescaleOut
	// CmdAddInPort attaches a new input edge to a running HAU — the
	// downstream side of a rescale, where replica output edges replace the
	// old incarnation's edge. The attach is deferred until every existing
	// input port whose upstream is named in AfterFrom has closed,
	// preserving per-source FIFO order across the old->new handover. A
	// non-nil Reply receives nil once the port is attached.
	CmdAddInPort
	// CmdTeeOut installs a mirror edge on one (single-edge) output port:
	// the pending batch is flushed to the main edge, a migration token is
	// appended and flushed after it (the cut the standby's state snapshot
	// aligns on), and from then on every stamped tuple and every token is
	// copied to the mirror as well. The mirror copies carry the main
	// edge's sequence numbers — the standby's incarnation of the stream.
	CmdTeeOut
	// CmdTeeDrop removes the mirror from one teed output port: the
	// mirror's pending batch is flushed and the mirror edge closed. Used
	// when a standby dies or is demoted.
	CmdTeeDrop
	// CmdTeeSwap promotes the mirror of one teed output port to be the
	// main edge: the dead primary's main edge has its pending batch
	// dropped (every stamped tuple already has a copy in the mirror) and
	// is closed, and the mirror becomes the port's only edge. This is the
	// upstream half of a standby failover.
	CmdTeeSwap
	// CmdPromote turns a suppressed standby into a live HAU: the
	// suppression ring is re-emitted onto the (shared) output edges —
	// downstream dedup drops whatever the dead primary already delivered —
	// and the standby re-broadcasts its latest checkpoint tokens in case
	// the primary died before broadcasting its own (receivers drop stale
	// duplicates).
	CmdPromote
	// CmdStandbySnap arms the same migration-token barrier drain as
	// CmdMigrateSnap — flush outputs, serialize state onto Reply — but the
	// HAU keeps running afterwards instead of exiting. Used to clone a
	// live primary's state into a fresh standby.
	CmdStandbySnap
)

// Command is a controller-to-HAU control message.
type Command struct {
	Kind  CommandKind
	Epoch uint64
	Port  int   // CmdSwapOutEdge, CmdReplayOutput, CmdMigrateOut, CmdRescaleOut
	Edge  *Edge // CmdSwapOutEdge, CmdMigrateOut, CmdAddInPort
	// Reply must be buffered (capacity >= 1). CmdMigrateSnap and
	// CmdStandbySnap send the state blob; CmdAddInPort sends nil once the
	// port is attached.
	Reply chan<- []byte

	Edges     []*Edge // CmdRescaleOut: new edge set, replica order
	Router    KeyRouter
	Logical   int      // CmdAddInPort: logical input port for the operator
	AfterFrom []string // CmdAddInPort: attach only after these upstreams close
}

// KeyRouter resolves a tuple key to the index of the output edge owning it
// — the partition.Router installed on a routed port. nil means the port has
// a single edge.
type KeyRouter interface {
	Route(key string) int
}

// CheckpointBreakdown decomposes one individual checkpoint the way Fig. 14
// does: token collection, disk I/O, and other (serialization + process
// creation). Durations are modelled (unscaled) simulation time.
//
// Serialize is the on-loop freeze window — the section capture during which
// the HAU processes nothing. Flatten and Diff run on the checkpoint writer
// (off-loop for asynchronous schemes) together with the DiskIO write.
type CheckpointBreakdown struct {
	TokenWait time.Duration // command/first-token arrival -> alignment
	Serialize time.Duration // on-loop state capture — the freeze window
	Flatten   time.Duration // writer-side section flatten into one blob
	Diff      time.Duration // writer-side block-delta computation
	DiskIO    time.Duration // stable-storage write
	// AlignStallMax/AlignStallSum measure how long tokened input ports
	// went unread waiting for the slowest token (max over
	// ports, and sum across ports). Always zero for unaligned and
	// baseline checkpoints — that is the stall the unaligned scheme
	// eliminates.
	AlignStallMax time.Duration
	AlignStallSum time.Duration
	StateBytes    int64 // bytes written (delta when Delta is set)
	DirtyBytes    int64 // bytes re-encoded during the capture
	// ChannelBytes counts the in-flight channel tuples logged into the
	// blob's channel-state section (unaligned checkpoints only) — the
	// snapshot-size price paid for eliminating the alignment stall.
	ChannelBytes int64
	Delta        bool // written as a delta against the previous epoch
	Async        bool
}

// Total returns the checkpoint's end-to-end duration: the freeze window
// plus the writer-side work. For asynchronous schemes only TokenWait +
// Serialize stalls the stream.
func (b CheckpointBreakdown) Total() time.Duration {
	return b.TokenWait + b.Serialize + b.Flatten + b.Diff + b.DiskIO
}

// Freeze returns the time the HAU loop was unable to process tuples for
// this checkpoint, excluding token alignment.
func (b CheckpointBreakdown) Freeze() time.Duration {
	if b.Async {
		return b.Serialize
	}
	return b.Serialize + b.Flatten + b.Diff + b.DiskIO
}

// Listener receives HAU events. The controller implements it; tests use
// stubs. Callbacks run on HAU or writer goroutines and must not block for
// long.
type Listener interface {
	// CheckpointDone fires when an individual checkpoint is durable.
	CheckpointDone(hau string, epoch uint64, b CheckpointBreakdown)
	// TurningPoint fires when the HAU's state-size series turns. halved
	// reports whether the size fell by more than half since the previous
	// peak (the passive-mode notification trigger, §III-C3).
	TurningPoint(hau string, at int64, size int64, icr float64, halved bool)
	// Stopped fires when the HAU's main loop exits.
	Stopped(hau string, err error)
}

// NopListener discards all events.
type NopListener struct{}

// CheckpointDone implements Listener.
func (NopListener) CheckpointDone(string, uint64, CheckpointBreakdown) {}

// TurningPoint implements Listener.
func (NopListener) TurningPoint(string, int64, int64, float64, bool) {}

// Stopped implements Listener.
func (NopListener) Stopped(string, error) {}
