package spe

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"meteorshower/internal/buffer"
	"meteorshower/internal/delta"
	"meteorshower/internal/operator"
	"meteorshower/internal/statesize"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// DefaultEdgeBuffer is the per-stream capacity in tuples. A bounded edge
// is the in-flight window of the simulated TCP connection: full edge =
// backpressure on the sender.
const DefaultEdgeBuffer = 512

// DefaultBatchSize is how many tuples a sender accumulates before one
// push onto the edge. Tokens and tick deadlines force earlier flushes, so
// batching trades at most one tick of latency for an order of magnitude
// fewer hand-offs between HAU loops.
const DefaultBatchSize = 32

// Edge is a stream between two HAUs. Tuples cross it in micro-batches:
// the sending HAU appends to a pending batch and flushes it on batch-full,
// on its tick deadline, when its input side goes idle, or immediately when
// a token is emitted. A flushed batch lands in the edge's bounded FIFO ring
// of batch slots; per-edge order is the append order. The receiver binds a
// wake channel that every push pokes, so an HAU pops all of its input
// edges from its own loop with no goroutine in between.
//
// Append/Flush/DropPending are owned by the sending HAU's loop. Inject and
// Recv are safe for concurrent use (tests and external producers).
type Edge struct {
	From, To string

	batch    int // max tuples per batch
	tupleCap int // logical capacity in tuples

	pending *tuple.Batch // sender-side accumulation
	queued  atomic.Int64 // tuples sent and not yet received

	mu      sync.Mutex
	ring    []*tuple.Batch // ceil(buf/batch) batch slots
	head, n int            // oldest slot, occupied slots
	closed  bool
	waiters int           // senders blocked on a full ring
	space   chan struct{} // cap 1: a pop wakes a blocked sender
	wake    chan struct{} // the receiver's wake channel; nil until bound
}

// NewEdge returns an edge with the given buffer capacity in tuples
// (0 = default) and the default batch size.
func NewEdge(from, to string, buf int) *Edge {
	return NewEdgeBatch(from, to, buf, 0)
}

// NewEdgeBatch returns an edge with explicit buffer capacity and batch
// size (0 = defaults). The batch size is clamped to the buffer capacity,
// and the ring holds ceil(buf/batch) batch slots so a full ring of full
// batches matches the configured tuple capacity.
func NewEdgeBatch(from, to string, buf, batch int) *Edge {
	if buf <= 0 {
		buf = DefaultEdgeBuffer
	}
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	if batch > buf {
		batch = buf
	}
	slots := (buf + batch - 1) / batch
	return &Edge{
		From: from, To: to,
		batch:    batch,
		tupleCap: buf,
		ring:     make([]*tuple.Batch, slots),
		space:    make(chan struct{}, 1),
	}
}

// Cap returns the edge's logical capacity in tuples.
func (e *Edge) Cap() int { return e.tupleCap }

// BatchSize returns the sender's batch size in tuples.
func (e *Edge) BatchSize() int { return e.batch }

// Append adds t to the pending batch without sending. Sender-loop only.
func (e *Edge) Append(t *tuple.Tuple) {
	if e.pending == nil {
		e.pending = tuple.GetBatch()
	}
	e.pending.Tuples = append(e.pending.Tuples, t)
}

// Full reports whether the pending batch reached the batch size.
func (e *Edge) Full() bool {
	return e.pending != nil && len(e.pending.Tuples) >= e.batch
}

// PendingLen returns how many tuples are accumulated but not yet sent.
func (e *Edge) PendingLen() int {
	if e.pending == nil {
		return 0
	}
	return len(e.pending.Tuples)
}

// Flush sends the pending batch. Returns false only if ctx died while the
// ring was full; the batch stays pending in that case.
func (e *Edge) Flush(ctx context.Context) bool {
	if e.pending == nil || len(e.pending.Tuples) == 0 {
		return true
	}
	if !e.push(ctx, e.pending) {
		return false
	}
	e.pending = nil
	return true
}

// push appends b to the ring, blocking while the ring is full, then pokes
// the receiver's wake channel. Returns false, with b still the caller's, if
// ctx died first; a nil ctx waits for room indefinitely.
func (e *Edge) push(ctx context.Context, b *tuple.Batch) bool {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	e.mu.Lock()
	for e.n == len(e.ring) {
		e.waiters++
		e.mu.Unlock()
		select {
		case <-e.space:
		case <-done:
			e.mu.Lock()
			e.waiters--
			e.mu.Unlock()
			return false
		}
		e.mu.Lock()
		e.waiters--
	}
	e.ring[(e.head+e.n)%len(e.ring)] = b
	e.n++
	e.queued.Add(int64(len(b.Tuples)))
	if e.waiters > 0 && e.n < len(e.ring) {
		// Room is left: pass the wake-up on to the next blocked sender.
		poke(e.space)
	}
	w := e.wake
	e.mu.Unlock()
	poke(w)
	return true
}

// pop removes the oldest batch without blocking. With the ring empty it
// returns (nil, closed): the hang-up shows only after every queued batch.
func (e *Edge) pop() (*tuple.Batch, bool) {
	e.mu.Lock()
	if e.n == 0 {
		closed := e.closed
		e.mu.Unlock()
		return nil, closed
	}
	b := e.ring[e.head]
	e.ring[e.head] = nil
	if e.head++; e.head == len(e.ring) {
		e.head = 0
	}
	e.n--
	e.queued.Add(-int64(len(b.Tuples)))
	if e.waiters > 0 {
		poke(e.space)
	}
	e.mu.Unlock()
	return b, false
}

// bind makes every later push and Close poke w. One receiver at a time:
// binding replaces the previous receiver's channel.
func (e *Edge) bind(w chan struct{}) {
	e.mu.Lock()
	e.wake = w
	e.mu.Unlock()
}

// poke does a non-blocking send on a cap-1 signal channel; a signal
// already pending covers this one. A nil channel is a no-op.
func poke(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// DropPending abandons the pending batch (edge swap-out: the tuples are
// already preserved and will be covered by replay).
func (e *Edge) DropPending() {
	if e.pending != nil {
		tuple.PutBatch(e.pending)
		e.pending = nil
	}
}

// Inject sends ts as one batch, bypassing the pending accumulation. Safe
// for concurrent use; tests and external producers feed edges with it.
// A nil ctx blocks until the send completes.
func (e *Edge) Inject(ctx context.Context, ts ...*tuple.Tuple) bool {
	b := tuple.BatchOf(ts...)
	if !e.push(ctx, b) {
		tuple.PutBatch(b)
		return false
	}
	return true
}

// Recv pops one batch, waiting while the ring is empty. Returns
// (nil, false) once the edge is closed and drained, or when ctx died.
// It binds the edge's wake-ups to the caller, so it is for edges no HAU
// reads: tests, and the cluster draining a dead consumer's edge.
func (e *Edge) Recv(ctx context.Context) (*tuple.Batch, bool) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var wake chan struct{}
	for {
		b, closed := e.pop()
		if b != nil {
			return b, true
		}
		if closed {
			return nil, false
		}
		if wake == nil {
			// Re-check after binding: a push may have landed before it.
			wake = make(chan struct{}, 1)
			e.bind(wake)
			continue
		}
		select {
		case <-wake:
		case <-done:
			return nil, false
		}
	}
}

// Close ends the stream: the receiver pops the remaining batches and then
// treats the edge as a permanent upstream hangup (the port counts as
// aligned forever). Sender-side only, after the final Flush; no
// Append/Flush/Inject may follow.
func (e *Edge) Close() {
	e.mu.Lock()
	e.closed = true
	w := e.wake
	e.mu.Unlock()
	poke(w)
}

// Queued returns the number of tuples sent on the edge and not yet
// received — the ring occupancy in tuples.
func (e *Edge) Queued() int { return int(e.queued.Load()) }

// Occupancy returns queued plus pending tuples: everything emitted on
// this edge that the receiver has not picked up. Load shedding compares
// it against the watermark.
func (e *Edge) Occupancy() int { return e.Queued() + e.PendingLen() }

// OutPort is one logical output port: one edge per downstream replica plus
// the key router choosing among them. A nil Router means the port has a
// single edge (Edges[0]) — the common un-split case.
type OutPort struct {
	Edges  []*Edge
	Router KeyRouter
}

// flattenPorts lays the ports' edges out port-major and returns the flat
// list plus each port's base physical index.
func flattenPorts(out []OutPort) ([]*Edge, []int) {
	var phys []*Edge
	base := make([]int, len(out))
	for p, op := range out {
		base[p] = len(phys)
		phys = append(phys, op.Edges...)
	}
	return phys, base
}

// Config assembles one HAU. The cluster layer builds these; tests build
// them directly.
type Config struct {
	ID     string
	Scheme Scheme
	// Ops is the operator chain: Ops[0] receives the HAU's inputs, each
	// operator's emissions feed the next, and the last operator's output
	// ports map to Out edges. In the paper's evaluation every HAU holds
	// exactly one operator.
	Ops []operator.Operator
	In  []*Edge
	Out []*Edge

	// OutPorts is the routed alternative to Out: when non-nil it wins, and
	// each logical port may fan over several edges (one per downstream
	// replica) chosen by the port's key router. Out is the shorthand for
	// all-single-edge ports.
	OutPorts []OutPort
	// InLogical maps each physical input port (index into In) to the
	// logical port number passed to Ops[0].OnTuple — several physical ports
	// collapse onto one logical port when the upstream is split into
	// replicas. nil means identity.
	InLogical []int

	Catalog   *storage.Catalog  // individual checkpoint destination
	SourceLog *buffer.SourceLog // source preservation (MS schemes, source HAUs)
	Preserver *buffer.Preserver // input preservation (baseline, all HAUs)
	// AckUpstream delivers a checkpoint ack for input port inPort
	// covering sequences <= seq (baseline). Wired by the cluster.
	AckUpstream func(inPort int, seq uint64)

	Listener Listener

	TickEvery  time.Duration // operator tick / source generation period
	CkptPeriod time.Duration // baseline: self-checkpoint period (0 = off)
	CkptPhase  time.Duration // baseline: random phase of first checkpoint

	// PerTupleDelay models per-tuple CPU cost beyond the operators' real
	// work. Zero for most tests.
	PerTupleDelay time.Duration
	// CPU, when set, is the hosting node's shared compute gate: instead of
	// sleeping PerTupleDelay independently, the HAU charges it against the
	// node's virtual busy clock, so co-located HAUs contend for capacity
	// and the node's utilization becomes observable. Charges are amortized
	// into >=cpuChargeChunk debts to stay off the per-tuple fast path.
	CPU *CPUGate

	// DeltaCheckpoint enables delta-checkpointing (paper §V): checkpoints
	// write only the blocks changed since the previous epoch, with a full
	// snapshot every DeltaFullEvery epochs.
	DeltaCheckpoint bool
	DeltaFullEvery  int // 0 = default 4

	// ShedWatermark enables load shedding (paper §III: long-term overload
	// "require[s] load shedding"): when an output edge is fuller than
	// this fraction of its capacity, new data tuples for it are dropped
	// instead of blocking the operator. 0 disables shedding.
	ShedWatermark float64

	// Standby starts the HAU as a suppressed active standby: it executes
	// the operator chain and stamps output sequence numbers, but writes
	// nothing to its output edges (which are shared with the live primary)
	// until CmdPromote. Stamped tuples are kept in a bounded per-edge
	// suppression ring so a promotion can re-emit whatever the dead
	// primary may not have delivered; downstream dedup drops the overlap.
	// It acks checkpoint tokens but never writes blobs and never
	// broadcasts tokens while suppressed.
	Standby bool
	// StandbyRing caps each output edge's suppression ring in tuples
	// (0 = 4x the edge's capacity+batch — comfortably more than the
	// primary can have stamped but not yet delivered).
	StandbyRing int

	Now func() int64 // clock; defaults to wall time
}

type retainedTuple struct {
	port int
	t    *tuple.Tuple
}

// chanReplayStream is one restored port's logged channel tuples.
type chanReplayStream struct {
	port int
	ts   []*tuple.Tuple
}

// HAU is a running High Availability Unit: "the smallest unit of work that
// can be checkpointed and recovered independently".
type HAU struct {
	cfg Config
	src operator.Source // cfg.Ops[0] if it is a source
	ctx context.Context // loop context, set by run

	ctrl chan Command
	// wake is bound to every input edge: a push or a hang-up on any of them
	// pokes it, and the idle loop sleeps on it.
	wake chan struct{}

	// Output geometry. out holds the logical ports; physOut flattens their
	// edges port-major, and outBase[p] is the physical index of out[p]'s
	// first edge. All per-edge state (outSeq, presPending, retained ports)
	// is indexed by physical edge.
	out     []OutPort
	physOut []*Edge
	outBase []int

	// Active-standby replication. mirror holds, per physical out edge, the
	// standby's tee edge (nil = port not teed): stamped tuples and tokens
	// are copied there carrying the main edge's sequence numbers. rings
	// holds, on a suppressed standby, the bounded per-edge FIFO of stamped
	// tuples awaiting a possible promotion. standbyFlag is read by the
	// hot path and by the cluster/tests, written only by the loop
	// (construction and CmdPromote).
	mirror      []*Edge
	rings       [][]*tuple.Tuple
	standbyFlag atomic.Bool
	mirrorBytes atomic.Int64
	ringCount   atomic.Int64

	// Input geometry. in/inFrom/inLogical grow when a rescale attaches new
	// ports (CmdAddInPort); physical indexes of existing ports never change,
	// closed ports just stay inert. inFrom labels each port with its
	// upstream incarnation id (Edge.From) — checkpoints record the labels so
	// restore can match ports across geometry changes.
	in        []*Edge
	inFrom    []string
	inLogical []int
	attachQ   []Command // CmdAddInPort waiting for AfterFrom ports to close
	nextPort  int       // where the next read round starts

	// Loop-owned state (no locks needed).
	cpuDebt     time.Duration // accumulated service time not yet charged to cfg.CPU
	outSeq      []uint64
	lastInSeq   []uint64
	lastSrcID   []map[string]uint64 // per in port: per-source high-water ID
	aligned     []bool
	closed      []bool           // input edge hung up; counts as aligned
	parked      [][]*tuple.Batch // per port: popped batches not yet processed, read before the edge
	presPending [][]*tuple.Tuple // per physical out edge: retained copies awaiting preservation
	awaiting    bool
	pendingEp   uint64
	doneEpoch   uint64 // highest token epoch already checkpointed
	alignStart  int64
	retaining   bool
	retained    []retainedTuple
	nextCkpt    int64
	localEpoch  uint64
	reportAll   bool
	alert       bool
	tracker     statesize.Tracker
	lastPeak    int64
	emitters    []operator.Emitter
	pendingOut  []retainedTuple // in-flight tuples restored from a snapshot
	srcReplay   []*tuple.Tuple  // preserved source tuples to re-send first

	// Unaligned-capture state (MSSrcAPU), loop-owned. While armed, the
	// operator snapshot for ucapEpoch is already taken (ucapSnap) and the
	// loop reads not-yet-sealed ports ahead, logging their in-flight channel
	// tuples into ucapLog; data batches are parked until the capture
	// finalizes.
	ucapArmed     bool
	ucapEpoch     uint64
	ucapStart     int64
	ucapSerialize time.Duration
	ucapSnap      *stateSnapshot
	ucapSealed    []bool
	ucapLog       *buffer.ChannelCapture

	// pausedAt records, per input port, when alignment stopped reading it —
	// the per-port alignment stall reported in the breakdown.
	pausedAt []int64

	// chanReplay holds channel tuples decoded from an unaligned
	// checkpoint's channel-state section, replayed through the input path
	// before normal processing resumes.
	chanReplay []chanReplayStream

	// Live-migration drain state: armed by CmdMigrateSnap, completed when
	// every input has delivered its migration token (or closed). migStay
	// (CmdStandbySnap) hands the blob over and keeps running instead of
	// exiting — the clone-a-live-primary path.
	migArmed bool
	migStay  bool
	migSeen  []bool
	migReply chan<- []byte

	// opSecs caches each operator's most recent encoded section so clean
	// incremental operators cost one pointer per epoch. Loop-owned.
	opSecs []*sectionBuf

	// Checkpoint writer: one FIFO goroutine per HAU flattens snapshots,
	// computes deltas, and writes to the catalog, keeping everything but the
	// raw capture off the processing loop. The FIFO also guarantees a delta's
	// base epoch is durable before the delta save referencing it. Launched
	// lazily by the first async checkpoint; wstate is owned by the writer for
	// async schemes and by the loop for synchronous ones.
	ckptCh     chan ckptJob
	writerDone chan struct{}
	wstate     ckptWriterState

	cachedSize atomic.Int64
	processed  atomic.Uint64
	shed       atomic.Uint64
	// mixedTokens counts tokens that reached an aligning HAU for another
	// epoch than the one it aligns: older ones dropped, newer ones held.
	mixedTokens atomic.Uint64
	writerWG    sync.WaitGroup

	startOnce sync.Once
	done      chan struct{}
	failed    atomic.Bool
	errMu     sync.Mutex
	err       error
	// fenced is set by Fence when the HAU's node dies.
	fenced atomic.Bool
}

// New validates cfg and returns a ready-to-start HAU.
func New(cfg Config) (*HAU, error) {
	if cfg.ID == "" {
		return nil, errors.New("spe: empty HAU id")
	}
	if len(cfg.Ops) == 0 {
		return nil, fmt.Errorf("spe: HAU %s has no operators", cfg.ID)
	}
	if cfg.Listener == nil {
		cfg.Listener = NopListener{}
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 2 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	// Logical output ports: OutPorts wins; Out is all-single-edge shorthand.
	out := cfg.OutPorts
	if out == nil {
		out = make([]OutPort, len(cfg.Out))
		for i, e := range cfg.Out {
			out[i] = OutPort{Edges: []*Edge{e}}
		}
	}
	physOut, outBase := flattenPorts(out)
	inLogical := cfg.InLogical
	if inLogical == nil {
		inLogical = make([]int, len(cfg.In))
		for i := range inLogical {
			inLogical[i] = i
		}
	} else if len(inLogical) != len(cfg.In) {
		return nil, fmt.Errorf("spe: HAU %s has %d in edges but %d logical mappings", cfg.ID, len(cfg.In), len(inLogical))
	}
	if cfg.Standby && !cfg.Scheme.OneHopTokens() {
		return nil, fmt.Errorf("spe: standby HAU %s requires a 1-hop token scheme, got %s", cfg.ID, cfg.Scheme)
	}
	h := &HAU{
		cfg:         cfg,
		ctrl:        make(chan Command, 64),
		opSecs:      make([]*sectionBuf, len(cfg.Ops)),
		out:         out,
		physOut:     physOut,
		outBase:     outBase,
		mirror:      make([]*Edge, len(physOut)),
		rings:       make([][]*tuple.Tuple, len(physOut)),
		in:          append([]*Edge(nil), cfg.In...),
		inLogical:   append([]int(nil), inLogical...),
		outSeq:      make([]uint64, len(physOut)),
		lastInSeq:   make([]uint64, len(cfg.In)),
		lastSrcID:   make([]map[string]uint64, len(cfg.In)),
		aligned:     make([]bool, len(cfg.In)),
		closed:      make([]bool, len(cfg.In)),
		pausedAt:    make([]int64, len(cfg.In)),
		migSeen:     make([]bool, len(cfg.In)),
		parked:      make([][]*tuple.Batch, len(cfg.In)),
		presPending: make([][]*tuple.Tuple, len(physOut)),
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	h.inFrom = make([]string, len(h.in))
	for i, e := range h.in {
		h.inFrom[i] = e.From
	}
	for i := range h.lastSrcID {
		h.lastSrcID[i] = make(map[string]uint64)
	}
	if s, ok := cfg.Ops[0].(operator.Source); ok {
		h.src = s
		if len(cfg.In) > 0 {
			return nil, fmt.Errorf("spe: source HAU %s must not have inputs", cfg.ID)
		}
		if cfg.Standby {
			return nil, fmt.Errorf("spe: source HAU %s cannot run as a standby", cfg.ID)
		}
	}
	h.standbyFlag.Store(cfg.Standby)
	h.emitters = make([]operator.Emitter, len(cfg.Ops))
	for i := range cfg.Ops {
		i := i
		if i == len(cfg.Ops)-1 {
			h.emitters[i] = func(port int, t *tuple.Tuple) { h.deliverOut(port, t) }
		} else {
			h.emitters[i] = func(port int, t *tuple.Tuple) {
				if err := h.cfg.Ops[i+1].OnTuple(port, t, h.emitters[i+1]); err != nil {
					h.setErr(err)
				}
			}
		}
	}
	return h, nil
}

// ID returns the HAU id.
func (h *HAU) ID() string { return h.cfg.ID }

// Scheme returns the configured fault-tolerance scheme.
func (h *HAU) Scheme() Scheme { return h.cfg.Scheme }

// IsSource reports whether this HAU hosts a source operator.
func (h *HAU) IsSource() bool { return h.src != nil }

// Ops exposes the operator chain (read-only use).
func (h *HAU) Ops() []operator.Operator { return h.cfg.Ops }

// Command enqueues a controller command. Blocks only if the command queue
// is saturated.
func (h *HAU) Command(cmd Command) {
	select {
	case h.ctrl <- cmd:
	case <-h.done:
	}
}

// CachedStateSize returns the last sampled state size — the controller's
// size query (§III-C3) reads this without disturbing the HAU loop.
func (h *HAU) CachedStateSize() int64 { return h.cachedSize.Load() }

// Standby reports whether the HAU is currently a suppressed standby.
// Flips to false when CmdPromote is processed.
func (h *HAU) Standby() bool { return h.standbyFlag.Load() }

// MirrorBytes returns the total tuple bytes copied to standby mirror
// edges — the duplicate-traffic cost of protecting downstream HAUs.
func (h *HAU) MirrorBytes() int64 { return h.mirrorBytes.Load() }

// ProcessedCount returns how many data tuples this HAU has processed (or,
// for sources, generated) since it started — the throughput numerator.
func (h *HAU) ProcessedCount() uint64 { return h.processed.Load() }

// ShedCount returns how many tuples load shedding dropped.
func (h *HAU) ShedCount() uint64 { return h.shed.Load() }

// Operators returns the HAU's operator chain (tests, tooling). Operator
// state is owned by the HAU loop — read it only after Done is closed.
func (h *HAU) Operators() []operator.Operator { return h.cfg.Ops }

// MixedTokens returns how many checkpoint tokens arrived during an
// alignment for a different epoch (dropped when older, held when newer).
func (h *HAU) MixedTokens() uint64 { return h.mixedTokens.Load() }

// Done is closed when the HAU loop exits.
func (h *HAU) Done() <-chan struct{} { return h.done }

// Err returns the terminal error, if any.
func (h *HAU) Err() error {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.err
}

func (h *HAU) setErr(err error) {
	if err == nil {
		return
	}
	h.errMu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.errMu.Unlock()
	h.failed.Store(true)
}

// SetSourceReplay queues preserved tuples for re-emission before normal
// processing starts. Must be called before Start. Recovery uses this to
// replay the source log; the generator cursor is advanced past the highest
// replayed id.
func (h *HAU) SetSourceReplay(ts []*tuple.Tuple) {
	h.srcReplay = ts
}

// Start launches the HAU loop. Safe to call once.
func (h *HAU) Start(ctx context.Context) {
	h.startOnce.Do(func() { go h.run(ctx) })
}

// Fence stops this HAU from starting any further checkpoint save: its node
// died, so a captured checkpoint not yet handed to the store must not
// complete an epoch. A save already in the store finishes, as bytes that
// left the node before it died would. Call it before cancelling the HAU's
// context. An orderly stop does not fence, and the queued saves drain.
func (h *HAU) Fence() { h.fenced.Store(true) }

// WaitWriters blocks until any in-flight asynchronous checkpoint writers
// finish (used by tests and orderly shutdown).
func (h *HAU) WaitWriters() { h.writerWG.Wait() }

func (h *HAU) now() int64 { return h.cfg.Now() }

func (h *HAU) run(ctx context.Context) {
	h.ctx = ctx
	defer func() {
		if h.ckptCh != nil {
			close(h.ckptCh)
			<-h.writerDone
		}
		h.writerWG.Wait()
		for i, sec := range h.opSecs {
			if sec != nil {
				sec.release()
				h.opSecs[i] = nil
			}
		}
		for phys, ring := range h.rings {
			for i, t := range ring {
				tuple.Put(t)
				ring[i] = nil
			}
			h.rings[phys] = nil
		}
		h.cfg.Listener.Stopped(h.cfg.ID, h.Err())
		close(h.done)
	}()

	// Phase 0: recovery replay. In-flight tuples captured by the MRC
	// snapshot go out first (they carry their original sequence numbers
	// and are already preserved), then preserved source tuples.
	for _, rt := range h.pendingOut {
		// Retained ports are physical: the tuples keep their original
		// sequence numbers, so they must return to the exact edge slot.
		if rt.port < 0 || rt.port >= len(h.physOut) {
			continue
		}
		if h.standbyFlag.Load() {
			// The primary already delivered these (the standby snapshot is
			// cut on a quiesced drain, so this is defensive); ring them so
			// a promotion re-emits and downstream dedup decides.
			h.ringPush(rt.port, rt.t)
			continue
		}
		e := h.physOut[rt.port]
		e.Append(rt.t)
		if e.Full() && !e.Flush(ctx) {
			return
		}
	}
	h.pendingOut = nil
	var maxReplayed uint64
	for _, t := range h.srcReplay {
		for port := range h.out {
			out := t
			if port < len(h.out)-1 {
				out = t.Retain()
			}
			if !h.deliverOut(port, out) {
				return
			}
		}
		if t.ID >= maxReplayed {
			maxReplayed = t.ID + 1
		}
	}
	if len(h.srcReplay) > 0 && h.src != nil {
		if rs, ok := h.src.(*operator.RateSource); ok {
			rs.SkipPast(maxReplayed - 1)
		}
	}
	h.srcReplay = nil
	// Channel tuples logged by an unaligned checkpoint replay through the
	// normal input path (dedup, operator chain, output stamping) before
	// the edges are read — exactly as if the edges delivered them first.
	// Their sequence numbers pick up right after the snapshot's lastInSeq,
	// and upstream re-emissions resume right after them.
	for _, cs := range h.chanReplay {
		var n uint64
		for _, t := range cs.ts {
			if h.failed.Load() {
				break
			}
			if h.onData(cs.port, t) {
				n++
			}
		}
		if n > 0 {
			h.processed.Add(n)
		}
	}
	h.chanReplay = nil
	if !h.flushAll(ctx) {
		return
	}

	if h.cfg.CkptPeriod > 0 {
		h.nextCkpt = h.now() + int64(h.cfg.CkptPhase)
	}

	for _, e := range h.in {
		e.bind(h.wake)
	}

	ticker := time.NewTicker(h.cfg.TickEvery)
	defer ticker.Stop()

	for {
		if h.failed.Load() {
			return // fail-stop: the operator stops functioning
		}
		select {
		case <-ctx.Done():
			return
		case cmd := <-h.ctrl:
			h.onCommand(ctx, cmd)
		case <-ticker.C:
			h.onTick(ctx)
		default:
		}
		read := h.readInputs(ctx)
		// Migration drain complete: everything routed to this incarnation
		// has been processed, nothing is parked, and no checkpoint is in
		// flight. Hand the state to the cluster and exit; the destination
		// incarnation resumes from the blob. A standby-arming drain
		// (CmdStandbySnap) instead hands the blob over and keeps running —
		// the clone continues as the suppressed standby.
		if h.migArmed && !h.awaiting && !h.ucapArmed && h.migrationAligned() {
			if !h.flushAll(ctx) {
				return
			}
			blob, err := h.encodeState()
			if err != nil {
				// No state handed over: the migration aborts when this
				// incarnation's Done closes, and recovery takes over.
				h.setErr(err)
				return
			}
			h.migReply <- blob
			if !h.migStay {
				return
			}
			h.migArmed = false
			h.migStay = false
			h.migReply = nil
			for i := range h.migSeen {
				h.migSeen[i] = false
			}
		}
		if read {
			continue
		}
		// Idle: push partial batches out instead of sitting on them until
		// the next tick, then sleep until an input, command or tick. Under
		// load every round reads something and batches fill up instead.
		if !h.flushAll(ctx) {
			return
		}
		select {
		case <-ctx.Done():
			return
		case cmd := <-h.ctrl:
			h.onCommand(ctx, cmd)
		case <-ticker.C:
			h.onTick(ctx)
		case <-h.wake:
		}
	}
}

// readInputs runs one round over the input ports and reports whether it
// consumed anything. Each readable port gives at most one batch, parked
// batches before its edge, so per-edge FIFO order holds and no busy port
// starves the rest. An aligning port is not read at all — the ABS "block
// the channel" step: its bounded ring fills and backpressures exactly that
// upstream while the other ports keep flowing. While an unaligned capture
// is armed, readCapture reads ahead instead. A queued command ends the
// round early, so a checkpoint never waits behind a whole round of
// operator work; the next round resumes at the port where this one stopped.
func (h *HAU) readInputs(ctx context.Context) bool {
	read := false
	for i := len(h.in); i > 0; i-- {
		if h.failed.Load() || len(h.ctrl) > 0 {
			return read
		}
		p := h.nextPort
		if h.nextPort++; h.nextPort >= len(h.in) {
			h.nextPort = 0
		}
		switch {
		case h.aligned[p]:
		case h.ucapArmed:
			read = h.readCapture(ctx, p) || read
		case len(h.parked[p]) > 0:
			b := h.parked[p][0]
			h.parked[p][0] = nil
			h.parked[p] = h.parked[p][1:]
			h.processBatch(ctx, p, b)
			read = true
		case !h.closed[p]:
			b, closed := h.in[p].pop()
			if b != nil {
				h.processBatch(ctx, p, b)
				read = true
			} else if closed {
				h.onHangup(ctx, p)
				read = true
			}
		}
	}
	return read
}

// readCapture is readInputs' step for port p while an unaligned capture is
// armed. An unsealed port is read ahead: every batch queued on its edge is
// scanned now, so the capture barrier overtakes the backlog and the loop
// reaches the remaining seals without paying per-tuple processing on the
// way. A sealed port gives one batch per round. captureScan logs and parks
// the data for processing after the capture finalizes.
func (h *HAU) readCapture(ctx context.Context, p int) bool {
	if h.closed[p] {
		return false
	}
	read := false
	for {
		b, closed := h.in[p].pop()
		if b == nil {
			if closed {
				h.onHangup(ctx, p)
				return true
			}
			return read
		}
		read = true
		h.captureScan(ctx, p, b)
		if !h.ucapArmed || p >= len(h.ucapSealed) || h.ucapSealed[p] {
			return true
		}
	}
}

// onHangup handles input port p's edge closing after its last batch: the
// upstream is gone, so the port counts as aligned and sealed from now on
// and the HAU keeps serving its other inputs.
func (h *HAU) onHangup(ctx context.Context, p int) {
	h.closed[p] = true
	if h.ucapArmed {
		h.sealUnalignedPort(p)
	}
	h.checkAlignment(ctx)
	h.tryAttach()
}

// migrationAligned reports whether every input port has delivered its
// migration token or closed. A port that still has parked batches (an
// interleaved checkpoint alignment) is not done: its token order must be
// preserved, so completion waits for readInputs to empty it.
func (h *HAU) migrationAligned() bool {
	for i := range h.migSeen {
		if !h.migSeen[i] && !h.closed[i] {
			return false
		}
		if len(h.parked[i]) > 0 {
			return false
		}
	}
	return true
}

// processBatch runs the tuples of one batch through the operator chain.
// Tokens force a flush at the sender, so a token is normally the last
// tuple of its batch; if alignment begins mid-batch anyway, the remainder
// is re-parked at the front of the port's parked queue to preserve FIFO
// order.
func (h *HAU) processBatch(ctx context.Context, port int, b *tuple.Batch) {
	ts := b.Tuples
	var n uint64
	for i := 0; i < len(ts); i++ {
		if h.failed.Load() {
			break
		}
		t := ts[i]
		if t.IsToken() && h.holdsToken(t.Tok) {
			// Token e+1 before token e on this port: by FIFO the port will
			// never carry token e, so it closes the port for e's cut. The
			// token itself waits at the front of the port, processed once
			// e's cut is taken.
			h.mixedTokens.Add(1)
			h.repark(port, ts[i:])
			h.alignPort(ctx, port)
			break
		}
		if t.IsToken() {
			tok := *t.Tok
			ts[i] = nil
			tuple.Put(t)
			h.onToken(ctx, port, tok)
			if h.aligned[port] && i+1 < len(ts) {
				h.repark(port, ts[i+1:])
				break
			}
			continue
		}
		if h.onData(port, t) {
			n++
		}
	}
	if n > 0 {
		h.processed.Add(n)
	}
	tuple.PutBatch(b)
}

// repark puts the unprocessed rest of a batch back at the front of the
// port's parked queue, so the port's FIFO order survives a pause.
func (h *HAU) repark(port int, rest []*tuple.Tuple) {
	rem := tuple.GetBatch()
	rem.Tuples = append(rem.Tuples, rest...)
	h.parked[port] = append([]*tuple.Batch{rem}, h.parked[port]...)
}

// flushAll pushes every output edge's pending batch (and preservation
// backlog) downstream. Called on ticks and when the input side idles.
// A suppressed standby never touches its output edges — they are shared
// with the live primary, whose loop owns their pending batches.
func (h *HAU) flushAll(ctx context.Context) bool {
	if h.standbyFlag.Load() {
		return true
	}
	for phys := range h.physOut {
		if !h.flushPort(ctx, phys) {
			return false
		}
	}
	return true
}

// flushPres appends the port's pending retained copies to the preserver.
// Must run before the corresponding edge flush: a tuple is preserved
// before it becomes visible downstream.
func (h *HAU) flushPres(port int) bool {
	if h.cfg.Preserver == nil || len(h.presPending[port]) == 0 {
		return true
	}
	pend := h.presPending[port]
	err := h.cfg.Preserver.AppendBatch(port, pend)
	for i := range pend {
		pend[i] = nil
	}
	h.presPending[port] = pend[:0]
	if err != nil {
		h.setErr(err)
		return false
	}
	return true
}

// flushPort flushes one physical output edge (preservation first, then the
// standby mirror so copies are never newer than the originals downstream).
func (h *HAU) flushPort(ctx context.Context, phys int) bool {
	if !h.flushPres(phys) {
		return false
	}
	if m := h.mirror[phys]; m != nil && !m.Flush(ctx) {
		return false
	}
	return h.physOut[phys].Flush(ctx)
}

func (h *HAU) onCommand(ctx context.Context, cmd Command) {
	switch cmd.Kind {
	case CmdCheckpoint:
		h.onCheckpointCmd(ctx, cmd.Epoch)
	case CmdAlertOn:
		h.alert = true
	case CmdAlertOff:
		h.alert = false
	case CmdReportAll:
		h.reportAll = true
	case CmdReportNormal:
		h.reportAll = false
	case CmdSwapOutEdge:
		if cmd.Port >= 0 && cmd.Port < len(h.out) && len(h.out[cmd.Port].Edges) == 1 && cmd.Edge != nil {
			// Preserve stamped-but-unflushed tuples before abandoning the
			// old edge; replay reads them back from the preserver. The old
			// edge's pending batch is dropped, not leaked to the dead peer.
			phys := h.outBase[cmd.Port]
			h.flushPres(phys)
			h.physOut[phys].DropPending()
			h.out[cmd.Port].Edges[0] = cmd.Edge
			h.physOut[phys] = cmd.Edge
		}
	case CmdMigrateOut:
		if cmd.Port >= 0 && cmd.Port < len(h.out) && len(h.out[cmd.Port].Edges) == 1 && cmd.Edge != nil {
			// Everything already stamped for the old edge must reach it —
			// the migrating peer processes up to the token, and tuples lost
			// here would be sequence gaps downstream (no rollback covers a
			// migration). Flush pending plus the token, then divert.
			phys := h.outBase[cmd.Port]
			h.flushPres(phys)
			old := h.physOut[phys]
			old.Append(tuple.NewTokenAt(tuple.Token{Kind: tuple.Migration, From: h.cfg.ID}, h.now()))
			if !old.Flush(ctx) {
				return // ctx died: the whole migration aborts with us
			}
			h.out[cmd.Port].Edges[0] = cmd.Edge
			h.physOut[phys] = cmd.Edge
		}
	case CmdMigrateSnap:
		if cmd.Reply != nil {
			// Force-seal an in-flight unaligned capture: its remaining
			// tokens may never arrive once upstreams divert, and the drain
			// must not deadlock behind it. The epoch simply never
			// completes; recovery uses an older complete one.
			h.abortUnaligned()
			h.migArmed = true
			h.migReply = cmd.Reply
		}
	case CmdStandbySnap:
		if cmd.Reply != nil {
			// Same barrier drain as CmdMigrateSnap, but the HAU keeps
			// running after handing the blob over — the state clone a
			// fresh standby is built from.
			h.abortUnaligned()
			h.migArmed = true
			h.migStay = true
			h.migReply = cmd.Reply
		}
	case CmdTeeOut:
		if cmd.Port >= 0 && cmd.Port < len(h.out) && len(h.out[cmd.Port].Edges) == 1 && cmd.Edge != nil {
			phys := h.outBase[cmd.Port]
			if h.mirror[phys] != nil {
				return // already teed
			}
			// Flush pending plus a migration token to the main edge — the
			// cut the standby's snapshot drain aligns on. Every tuple
			// stamped after this instant is copied to the mirror.
			h.flushPres(phys)
			e := h.physOut[phys]
			e.Append(tuple.NewTokenAt(tuple.Token{Kind: tuple.Migration, From: h.cfg.ID}, h.now()))
			if !e.Flush(ctx) {
				return
			}
			h.mirror[phys] = cmd.Edge
		}
	case CmdTeeDrop:
		if cmd.Port >= 0 && cmd.Port < len(h.out) && len(h.out[cmd.Port].Edges) == 1 {
			phys := h.outBase[cmd.Port]
			if m := h.mirror[phys]; m != nil {
				h.mirror[phys] = nil
				if m.Flush(ctx) {
					m.Close()
				}
			}
		}
	case CmdTeeSwap:
		if cmd.Port >= 0 && cmd.Port < len(h.out) && len(h.out[cmd.Port].Edges) == 1 {
			phys := h.outBase[cmd.Port]
			m := h.mirror[phys]
			if m == nil {
				return
			}
			h.mirror[phys] = nil
			// The dead primary reads neither the pending batch nor the
			// channel; every stamped tuple already has a mirror copy.
			old := h.physOut[phys]
			old.DropPending()
			old.Close()
			if !m.Flush(ctx) {
				return
			}
			h.out[cmd.Port].Edges[0] = m
			h.physOut[phys] = m
		}
	case CmdPromote:
		h.promote(ctx)
	case CmdRescaleOut:
		h.onRescaleOut(ctx, cmd)
	case CmdAddInPort:
		if cmd.Edge != nil {
			h.attachQ = append(h.attachQ, cmd)
			h.tryAttach()
		}
	case CmdReplayOutput:
		if h.cfg.Preserver == nil || cmd.Port < 0 || cmd.Port >= len(h.out) || len(h.out[cmd.Port].Edges) != 1 {
			return
		}
		phys := h.outBase[cmd.Port]
		// Push anything already pending first so replayed tuples keep
		// sequence order on the wire.
		if !h.flushPort(ctx, phys) {
			return
		}
		ts, err := h.cfg.Preserver.Replay(phys, 0)
		if err != nil {
			h.setErr(err)
			return
		}
		e := h.physOut[phys]
		for _, t := range ts {
			e.Append(t)
			if e.Full() && !e.Flush(ctx) {
				return
			}
		}
		e.Flush(ctx)
	}
}

// onRescaleOut replaces one logical output port's edge set: the split or
// merge coordinator diverts this HAU's output from the old downstream
// incarnation(s) to the new one(s). Each old edge receives the pending
// flush plus a migration token (its downstream drains on it); the new
// edges start with fresh sequence counters. Must run while checkpoints are
// quiesced — the retained list is empty, so physical out indexes can be
// re-laid out safely.
func (h *HAU) onRescaleOut(ctx context.Context, cmd Command) {
	if cmd.Port < 0 || cmd.Port >= len(h.out) || len(cmd.Edges) == 0 {
		return
	}
	oldPort := h.out[cmd.Port]
	base := h.outBase[cmd.Port]
	for i, old := range oldPort.Edges {
		h.flushPres(base + i)
		old.Append(tuple.NewTokenAt(tuple.Token{Kind: tuple.Migration, From: h.cfg.ID}, h.now()))
		if !old.Flush(ctx) {
			return // ctx died: the rescale aborts with us
		}
	}
	if len(h.retained) > 0 {
		// Retained entries hold physical indexes about to be re-laid out;
		// the coordinator quiesces checkpoints first, so this is a protocol
		// violation rather than a recoverable state.
		h.setErr(fmt.Errorf("spe: %s rescaled out port %d with %d retained tuples", h.cfg.ID, cmd.Port, len(h.retained)))
		return
	}
	h.out[cmd.Port] = OutPort{Edges: cmd.Edges, Router: cmd.Router}
	h.physOut, h.outBase = flattenPorts(h.out)
	h.outSeq = spliceU64(h.outSeq, base, len(oldPort.Edges), len(cmd.Edges))
	h.presPending = splicePres(h.presPending, base, len(oldPort.Edges), len(cmd.Edges))
	h.mirror = spliceEdges(h.mirror, base, len(oldPort.Edges), len(cmd.Edges))
	h.rings = splicePres(h.rings, base, len(oldPort.Edges), len(cmd.Edges))
}

// spliceEdges replaces the n entries at base with m nils.
func spliceEdges(s []*Edge, base, n, m int) []*Edge {
	out := make([]*Edge, 0, len(s)-n+m)
	out = append(out, s[:base]...)
	out = append(out, make([]*Edge, m)...)
	return append(out, s[base+n:]...)
}

// spliceU64 replaces the n entries at base with m zeros.
func spliceU64(s []uint64, base, n, m int) []uint64 {
	out := make([]uint64, 0, len(s)-n+m)
	out = append(out, s[:base]...)
	out = append(out, make([]uint64, m)...)
	return append(out, s[base+n:]...)
}

// splicePres replaces the n entries at base with m empty slots.
func splicePres(s [][]*tuple.Tuple, base, n, m int) [][]*tuple.Tuple {
	out := make([][]*tuple.Tuple, 0, len(s)-n+m)
	out = append(out, s[:base]...)
	out = append(out, make([][]*tuple.Tuple, m)...)
	return append(out, s[base+n:]...)
}

// tryAttach attaches queued input ports whose ordering barrier is met:
// every existing port fed by an upstream named in AfterFrom has closed.
// This serializes the old incarnation's stream strictly before the replica
// streams that replace it. Each attach is acknowledged on the command's
// Reply, if any.
func (h *HAU) tryAttach() {
	kept := h.attachQ[:0]
	for _, cmd := range h.attachQ {
		if h.afterClosed(cmd.AfterFrom) {
			h.attachInPort(cmd.Edge, cmd.Logical)
			if cmd.Reply != nil {
				cmd.Reply <- nil
			}
		} else {
			kept = append(kept, cmd)
		}
	}
	h.attachQ = kept
}

func (h *HAU) afterClosed(after []string) bool {
	for _, from := range after {
		for i, f := range h.inFrom {
			if f == from && !h.closed[i] {
				return false
			}
		}
	}
	return true
}

// attachInPort appends one input port and binds its edge to the loop's
// wake channel; the next round reads it. The new port starts unaligned and
// unclosed with zeroed dedup state — its edge is fresh, so sequence
// numbers restart at 1.
func (h *HAU) attachInPort(e *Edge, logical int) {
	// The per-capture port arrays are sized at arming; a geometry change
	// mid-capture aborts it (the rescale coordinator quiesces checkpoints,
	// so this is a defensive guard, not a normal path).
	h.abortUnaligned()
	h.in = append(h.in, e)
	h.inFrom = append(h.inFrom, e.From)
	h.inLogical = append(h.inLogical, logical)
	h.lastInSeq = append(h.lastInSeq, 0)
	h.lastSrcID = append(h.lastSrcID, make(map[string]uint64))
	h.aligned = append(h.aligned, false)
	h.closed = append(h.closed, false)
	h.pausedAt = append(h.pausedAt, 0)
	h.migSeen = append(h.migSeen, false)
	h.parked = append(h.parked, nil)
	e.bind(h.wake)
}

func (h *HAU) onCheckpointCmd(ctx context.Context, epoch uint64) {
	if h.cfg.Scheme.UsesTokens() {
		// A token for this epoch may have raced ahead of the command (the
		// upstream handled its command first); in that case the HAU is
		// already armed — or already done — and a second arming would
		// broadcast duplicate tokens and stall the next epoch.
		if epoch <= h.doneEpoch || (h.awaiting && epoch <= h.pendingEp) ||
			(h.ucapArmed && epoch <= h.ucapEpoch) {
			return
		}
		if h.awaiting {
			// Still aligning an older epoch (a backlogged input keeps its
			// token in flight longer than the checkpoint period). Adopting
			// the newer epoch here would stamp its number on a snapshot cut
			// at the OLD barrier — sources would then be one epoch ahead of
			// this HAU inside the "complete" checkpoint, and rollback would
			// lose the inter-barrier window. Skip the command: the newer
			// epoch's tokens are already in-band behind the current ones and
			// arm it through onToken once this alignment finishes.
			return
		}
	}
	switch {
	case h.cfg.Scheme == MSSrc && h.src != nil:
		// §III-A step 1: checkpoint, then trickle a cascading token.
		h.alignStart = h.now()
		h.doneEpoch = epoch
		h.doCheckpoint(ctx, epoch, 0, 0, 0)
		h.beginSourceEpoch(epoch)
		h.broadcastToken(ctx, tuple.Token{Epoch: epoch, Kind: tuple.Cascading, From: h.cfg.ID})
	case h.cfg.Scheme.OneHopTokens():
		// §III-B: emit 1-hop tokens immediately, then await alignment.
		h.broadcastToken(ctx, tuple.Token{Epoch: epoch, Kind: tuple.OneHop, From: h.cfg.ID})
		if h.src != nil {
			h.beginSourceEpoch(epoch)
		}
		if len(h.in) == 0 {
			// Sources align trivially.
			h.alignStart = h.now()
			h.doneEpoch = epoch
			h.doCheckpoint(ctx, epoch, 0, 0, 0)
			return
		}
		if h.cfg.Scheme.Unaligned() {
			// Snapshot immediately and log in-flight channel tuples
			// instead of leaving ports unread for alignment.
			h.armUnaligned(ctx, epoch)
			return
		}
		h.awaiting = true
		h.pendingEp = epoch
		h.alignStart = h.now()
		h.retaining = true
	case h.cfg.Scheme == Baseline:
		// The baseline checkpoints on its own timer; an explicit command
		// forces one now (used by tests).
		h.baselineCheckpoint(ctx)
	}
}

func (h *HAU) beginSourceEpoch(epoch uint64) {
	if h.cfg.SourceLog != nil {
		if err := h.cfg.SourceLog.BeginEpoch(epoch); err != nil {
			h.setErr(err)
		}
	}
}

// onData runs one data tuple through duplicate suppression and the
// operator chain. Reports whether the tuple was processed (not a
// replay duplicate).
func (h *HAU) onData(port int, t *tuple.Tuple) bool {
	// Duplicate suppression. Meteor Shower rolls the whole application back
	// to one consistent cut, so per-edge sequence numbers are reliable.
	// The baseline restarts a single HAU whose re-emissions may interleave
	// multi-input processing differently, so its receivers match tuples by
	// per-source id instead (per edge and source, ids are FIFO-ordered).
	if h.cfg.Scheme == Baseline {
		if t.Src != "" {
			if last, ok := h.lastSrcID[port][t.Src]; ok && t.ID <= last {
				return false
			}
			h.lastSrcID[port][t.Src] = t.ID
		}
		if t.Seq > h.lastInSeq[port] {
			h.lastInSeq[port] = t.Seq // tracked for checkpoint acks
		}
	} else if t.Seq != 0 {
		if t.Seq <= h.lastInSeq[port] {
			return false // duplicate from a replay
		}
		h.lastInSeq[port] = t.Seq
	}
	if h.cfg.PerTupleDelay > 0 {
		if h.cfg.CPU != nil {
			h.cpuDebt += h.cfg.PerTupleDelay
			if h.cpuDebt >= cpuChargeChunk {
				h.cfg.CPU.Charge(h.cpuDebt)
				h.cpuDebt = 0
			}
		} else {
			time.Sleep(h.cfg.PerTupleDelay)
		}
	}
	if err := h.cfg.Ops[0].OnTuple(h.inLogical[port], t, h.emitters[0]); err != nil {
		h.setErr(err)
	}
	return true
}

func (h *HAU) onToken(ctx context.Context, port int, tok tuple.Token) {
	if tok.Kind == tuple.Migration {
		// Migration tokens carry no epoch; they mark that this input's
		// upstream has diverted to the new incarnation's edge. Completion
		// is checked in the run loop once all ports are marked. An
		// in-flight unaligned capture is force-sealed (aborted): its
		// remaining tokens may never arrive once upstreams divert, and the
		// migration drain must not wait on a never-pausing port.
		h.abortUnaligned()
		if port >= 0 && port < len(h.migSeen) {
			h.migSeen[port] = true
		}
		return
	}
	if tok.Epoch <= h.doneEpoch {
		return // stale duplicate from a late command broadcast
	}
	if h.cfg.Scheme.Unaligned() {
		h.onUnalignedToken(ctx, port, tok)
		return
	}
	if h.awaiting && tok.Epoch < h.pendingEp {
		// Older than the epoch being aligned (its command arrived late and
		// was skipped): this HAU never cuts that epoch, and counting the
		// port as aligned would stamp pendingEp on a cut at the older
		// barrier. The port stays open until its pendingEp token.
		h.mixedTokens.Add(1)
		return
	}
	if !h.awaiting {
		if h.cfg.Scheme.OneHopTokens() {
			// Token raced ahead of the controller command (possible when
			// the upstream processed its command first). Arm now exactly
			// as the command would.
			h.broadcastToken(ctx, tuple.Token{Epoch: tok.Epoch, Kind: tuple.OneHop, From: h.cfg.ID})
			h.awaiting = true
			h.pendingEp = tok.Epoch
			h.alignStart = h.now()
			h.retaining = true
		} else {
			h.awaiting = true
			h.pendingEp = tok.Epoch
			h.alignStart = h.now()
		}
	}
	h.alignPort(ctx, port)
}

// holdsToken reports whether tok belongs to an epoch newer than the one
// this HAU is aligning, so it must wait for the current cut.
func (h *HAU) holdsToken(tok *tuple.Token) bool {
	return h.awaiting && tok.Kind != tuple.Migration && tok.Epoch > h.pendingEp
}

// alignPort stops reading input port p for the pending cut and takes the
// cut once every port is aligned or closed.
func (h *HAU) alignPort(ctx context.Context, p int) {
	h.aligned[p] = true
	h.pausedAt[p] = h.now()
	h.checkAlignment(ctx)
}

// checkAlignment completes the individual checkpoint once every input is
// either tokened or closed.
func (h *HAU) checkAlignment(ctx context.Context) {
	if !h.awaiting {
		return
	}
	n := 0
	for i := range h.aligned {
		if h.aligned[i] || h.closed[i] {
			n++
		}
	}
	if n < len(h.aligned) {
		return // stream boundary: stop reading tokened inputs, keep the rest
	}
	// All tokens received: individual checkpoint.
	now := h.now()
	tokenWait := time.Duration(now - h.alignStart)
	var alignMax, alignSum time.Duration
	for i := range h.aligned {
		if h.aligned[i] && h.pausedAt[i] > 0 {
			d := time.Duration(now - h.pausedAt[i])
			alignSum += d
			if d > alignMax {
				alignMax = d
			}
		}
		h.pausedAt[i] = 0
	}
	epoch := h.pendingEp
	h.awaiting = false
	h.doneEpoch = epoch
	for i := range h.aligned {
		h.aligned[i] = false // erase tokens, reopen inputs
	}
	h.doCheckpoint(ctx, epoch, tokenWait, alignMax, alignSum)
	if h.cfg.Scheme == MSSrc {
		h.broadcastToken(ctx, tuple.Token{Epoch: epoch, Kind: tuple.Cascading, From: h.cfg.ID})
	}
}

func (h *HAU) onTick(ctx context.Context) {
	now := h.now()
	if h.src != nil {
		gen := h.src.Generate(now)
		for _, t := range gen {
			if h.cfg.SourceLog != nil {
				// Source preservation: stable write *before* sending.
				if err := h.cfg.SourceLog.Append(t); err != nil {
					h.setErr(err)
					return
				}
			}
			for port := range h.out {
				out := t
				if port < len(h.out)-1 {
					out = t.Retain()
				}
				if !h.deliverOut(port, out) {
					return
				}
			}
		}
		if len(gen) > 0 {
			h.processed.Add(uint64(len(gen)))
		}
	}
	for i, op := range h.cfg.Ops {
		if tk, ok := op.(operator.Ticker); ok {
			if err := tk.OnTick(now, h.emitters[i]); err != nil {
				h.setErr(err)
			}
		}
	}
	h.sampleState(now)
	if h.cfg.Scheme == Baseline && h.cfg.CkptPeriod > 0 && now >= h.nextCkpt {
		h.baselineCheckpoint(ctx)
		h.nextCkpt = now + int64(h.cfg.CkptPeriod)
	}
	h.flushAll(ctx)
}

func (h *HAU) sampleState(now int64) {
	size := h.stateSize()
	h.cachedSize.Store(size)
	tp := h.tracker.Observe(statesize.Sample{At: now, Size: size})
	if tp == nil {
		return
	}
	halved := false
	if tp.Kind == statesize.Peak {
		h.lastPeak = tp.Size
	} else if h.lastPeak > 0 && tp.Size*2 < h.lastPeak {
		halved = true
	}
	// Passive mode: only notify on halvings; active/alert/profiling mode
	// reports every turning point with its ICR (§III-C3).
	if h.reportAll || h.alert || halved {
		h.cfg.Listener.TurningPoint(h.cfg.ID, tp.At, tp.Size, tp.ICR, halved)
	}
}

func (h *HAU) stateSize() int64 {
	var n int64
	for _, op := range h.cfg.Ops {
		n += op.StateSize()
	}
	for _, rt := range h.retained {
		n += rt.t.Size()
	}
	return n
}

func (h *HAU) baselineCheckpoint(ctx context.Context) {
	h.localEpoch++
	h.alignStart = h.now()
	h.doCheckpoint(ctx, h.localEpoch, 0, 0, 0)
	// Ack upstream neighbours so they trim their preservation buffers.
	if h.cfg.AckUpstream != nil {
		for port := range h.in {
			h.cfg.AckUpstream(port, h.lastInSeq[port])
		}
	}
}

// releaseRetained recycles the retained in-flight copies after they have
// been encoded into a checkpoint. They are Retain copies owned exclusively
// by the HAU loop, so the headers go back to the pool.
func (h *HAU) releaseRetained() {
	for _, rt := range h.retained {
		tuple.Put(rt.t)
	}
	h.retaining = false
	h.retained = nil
}

// ckptJob is one captured checkpoint handed from the loop to the writer.
type ckptJob struct {
	epoch uint64
	snap  *stateSnapshot
	b     CheckpointBreakdown
}

// ckptWriterState is the delta-checkpoint bookkeeping owned by whichever
// goroutine performs the writes: the writer goroutine for asynchronous
// schemes, the HAU loop for synchronous ones.
type ckptWriterState struct {
	lastBlob  []byte // previous flattened state (delta base)
	lastEpoch uint64
	sinceFull int
}

// doCheckpoint takes the individual checkpoint for epoch. The loop only
// captures the state sections (freeze cost scales with dirty bytes);
// flatten, delta and the stable write run on the per-HAU writer goroutine
// for asynchronous schemes, or inline for synchronous ones. A failed
// operator snapshot aborts the individual checkpoint — nothing is saved, so
// the catalog can never mark a torn epoch complete.
func (h *HAU) doCheckpoint(ctx context.Context, epoch uint64, tokenWait, alignMax, alignSum time.Duration) {
	if h.cfg.Catalog == nil || h.standbyFlag.Load() {
		// A suppressed standby acks tokens (alignment ran) but writes no
		// blobs — the primary owns this HAU id's checkpoints.
		h.releaseRetained()
		return
	}
	serStart := time.Now()
	snap, err := h.captureState()
	serialize := time.Since(serStart)
	h.releaseRetained()
	if err != nil {
		h.setErr(err)
		return
	}
	h.submitCheckpoint(ckptJob{
		epoch: epoch,
		snap:  snap,
		b: CheckpointBreakdown{
			TokenWait:     tokenWait,
			Serialize:     serialize,
			AlignStallMax: alignMax,
			AlignStallSum: alignSum,
			DirtyBytes:    snap.dirty,
			Async:         h.cfg.Scheme.Asynchronous(),
		},
	})
}

// submitCheckpoint hands a captured snapshot to the writer — inline for
// synchronous schemes, the per-HAU writer goroutine otherwise.
func (h *HAU) submitCheckpoint(job ckptJob) {
	if !job.b.Async {
		h.writeCheckpoint(job)
		return
	}
	if h.ckptCh == nil {
		h.ckptCh = make(chan ckptJob, 16)
		h.writerDone = make(chan struct{})
		go h.writerLoop()
	}
	h.writerWG.Add(1)
	h.ckptCh <- job // bounded: backpressure if the writer falls 16 epochs behind
}

// armUnaligned starts an unaligned capture for epoch: the operator state
// is snapshotted immediately (the token-broadcast instant is the cut) and
// every open input port switches to channel logging until its token
// lands. No port is paused: readCapture reads the unsealed ones ahead, so
// the token overtakes the edge backlog.
func (h *HAU) armUnaligned(ctx context.Context, epoch uint64) {
	if h.migArmed {
		return // migration drain in progress: no new captures
	}
	if h.ucapArmed {
		// A newer epoch preempts an unfinished capture; the old epoch can
		// never complete application-wide once the controller moved on.
		h.abortUnaligned()
	}
	h.ucapArmed = true
	h.ucapEpoch = epoch
	h.ucapStart = h.now()
	h.ucapSerialize = 0
	h.ucapSealed = make([]bool, len(h.in))
	h.ucapLog = buffer.NewChannelCapture(epoch, len(h.in))
	if h.cfg.Catalog != nil && !h.standbyFlag.Load() {
		serStart := time.Now()
		snap, err := h.captureState()
		h.ucapSerialize = time.Since(serStart)
		if err != nil {
			h.setErr(err)
			h.abortUnaligned()
			return
		}
		h.ucapSnap = snap
	}
	for port := range h.in {
		h.ucapSealed[port] = h.closed[port]
		// Parked data precedes everything still on the edge, so it is
		// in flight at the cut: the snapshot above has not seen it.
		for _, b := range h.parked[port] {
			for _, t := range b.Tuples {
				if !t.IsToken() {
					h.ucapLog.Log(port, t)
				}
			}
		}
	}
	h.maybeFinalizeUnaligned()
}

// onUnalignedToken handles a checkpoint token under the unaligned scheme:
// the first token of a new epoch arms the capture (broadcasting our own
// token downstream, exactly as the controller command would), and a token
// for the armed epoch seals its port — no pausing, no alignment stall.
func (h *HAU) onUnalignedToken(ctx context.Context, port int, tok tuple.Token) {
	if !h.ucapArmed || tok.Epoch > h.ucapEpoch {
		h.broadcastToken(ctx, tuple.Token{Epoch: tok.Epoch, Kind: tuple.OneHop, From: h.cfg.ID})
		h.armUnaligned(ctx, tok.Epoch)
	}
	if h.ucapArmed && tok.Epoch == h.ucapEpoch {
		h.sealUnalignedPort(port)
	}
}

// sealUnalignedPort marks one port's channel log complete: its token has
// landed (or its edge closed), so no further tuples on it belong to the
// capture's cut.
func (h *HAU) sealUnalignedPort(port int) {
	if !h.ucapArmed || port < 0 || port >= len(h.ucapSealed) || h.ucapSealed[port] {
		return
	}
	h.ucapSealed[port] = true
	h.maybeFinalizeUnaligned()
}

// captureScan handles one popped batch while a capture is armed:
// data tuples on unsealed ports are logged into the capture, every data
// tuple is parked for processing after the capture finalizes (so the loop
// reaches the remaining seals without paying per-tuple processing cost in
// the capture window), and tokens are handled inline — they steer the
// capture itself.
func (h *HAU) captureScan(ctx context.Context, port int, b *tuple.Batch) {
	var park *tuple.Batch
	for i := 0; i < len(b.Tuples); i++ {
		t := b.Tuples[i]
		if t.IsToken() {
			tok := *t.Tok
			b.Tuples[i] = nil
			tuple.Put(t)
			// Park what precedes the token first: a token that re-arms the
			// capture for a newer epoch logs everything parked.
			if park != nil {
				h.parked[port] = append(h.parked[port], park)
				park = nil
			}
			h.onToken(ctx, port, tok)
			continue
		}
		if h.ucapArmed && port < len(h.ucapSealed) && !h.ucapSealed[port] {
			h.ucapLog.Log(port, t)
		}
		if park == nil {
			park = tuple.GetBatch()
		}
		park.Tuples = append(park.Tuples, t)
	}
	if park != nil {
		h.parked[port] = append(h.parked[port], park)
	}
	tuple.PutBatch(b)
}

// maybeFinalizeUnaligned completes the capture once every port is sealed
// or closed: the per-port channel logs are encoded into a channel-state
// section appended to the snapshot taken at arming, and the whole blob
// goes to the off-loop writer.
func (h *HAU) maybeFinalizeUnaligned() {
	if !h.ucapArmed {
		return
	}
	for port := range h.ucapSealed {
		if !h.ucapSealed[port] && !h.closed[port] {
			return
		}
	}
	epoch := h.ucapEpoch
	tokenWait := time.Duration(h.now() - h.ucapStart)
	snap := h.ucapSnap
	log := h.ucapLog
	h.ucapArmed = false
	h.ucapSnap = nil
	h.ucapLog = nil
	h.doneEpoch = epoch
	if snap == nil {
		log.Release()
		return // no catalog: capture protocol ran, nothing to persist
	}
	var chBytes int64
	if streams := log.Streams(h.inFrom); len(streams) > 0 {
		sec := storage.EncodeChannelSection(streams)
		chBytes = int64(len(sec))
		snap.sections = append(snap.sections, newSection(sec))
	}
	log.Release()
	h.submitCheckpoint(ckptJob{
		epoch: epoch,
		snap:  snap,
		b: CheckpointBreakdown{
			TokenWait:    tokenWait,
			Serialize:    h.ucapSerialize,
			DirtyBytes:   snap.dirty,
			ChannelBytes: chBytes,
			Async:        true,
		},
	})
}

// abortUnaligned force-seals an in-flight capture without persisting it:
// the snapshot sections and channel logs are released and the ports are
// read normally again. The epoch never completes in the catalog, so recovery
// simply uses an older complete one — safe because every logged tuple was
// also processed live. Idempotent.
func (h *HAU) abortUnaligned() {
	if !h.ucapArmed {
		return
	}
	h.ucapArmed = false
	if h.ucapSnap != nil {
		h.ucapSnap.release()
		h.ucapSnap = nil
	}
	if h.ucapLog != nil {
		h.ucapLog.Release()
		h.ucapLog = nil
	}
}

// writerLoop drains checkpoint jobs in FIFO order until the HAU loop closes
// the channel on exit.
func (h *HAU) writerLoop() {
	defer close(h.writerDone)
	for job := range h.ckptCh {
		h.writeCheckpoint(job)
		h.writerWG.Done()
	}
}

// writeCheckpoint flattens one captured snapshot, computes the block delta
// against the previous epoch when enabled, and saves through the catalog's
// ownership-transferring path (the flattened blob is fresh and immutable,
// so the store keeps it without a defensive copy).
func (h *HAU) writeCheckpoint(job ckptJob) {
	if h.fenced.Load() {
		job.snap.release()
		return
	}
	flatStart := time.Now()
	blob := job.snap.flatten()
	job.snap.release()
	job.b.Flatten = time.Since(flatStart)

	w := &h.wstate
	writeBlob := blob
	baseEpoch := uint64(0)
	useDelta := false
	if h.cfg.DeltaCheckpoint && w.lastBlob != nil {
		fullEvery := h.cfg.DeltaFullEvery
		if fullEvery <= 0 {
			fullEvery = 4
		}
		if w.sinceFull+1 < fullEvery {
			diffStart := time.Now()
			diff := delta.Diff(w.lastBlob, blob, delta.DefaultBlockSize)
			job.b.Diff = time.Since(diffStart)
			if len(diff) < len(blob) {
				writeBlob = diff
				baseEpoch = w.lastEpoch
				useDelta = true
			}
		}
	}
	if useDelta {
		w.sinceFull++
	} else {
		w.sinceFull = 0
	}
	w.lastBlob = blob
	w.lastEpoch = job.epoch

	job.b.StateBytes = int64(len(writeBlob))
	job.b.Delta = useDelta
	var d time.Duration
	var err error
	if useDelta {
		d, _, err = h.cfg.Catalog.SaveStateDeltaOwned(job.epoch, h.cfg.ID, writeBlob, baseEpoch)
	} else {
		d, _, err = h.cfg.Catalog.SaveStateOwned(job.epoch, h.cfg.ID, writeBlob)
	}
	if err != nil {
		h.setErr(err)
		return
	}
	job.b.DiskIO = d
	h.cfg.Listener.CheckpointDone(h.cfg.ID, job.epoch, job.b)
}

// broadcastToken appends a token to every output port and flushes
// immediately: tokens are never delayed by batching, so checkpoint
// latency is unaffected by the micro-batches. Teed ports copy the token
// to their mirror so the standby aligns on the same cuts as its
// downstream peers. A suppressed standby broadcasts nothing — its output
// edges belong to the live primary (CmdPromote re-broadcasts the latest
// epochs to restore token liveness after a failover).
func (h *HAU) broadcastToken(ctx context.Context, tok tuple.Token) {
	if h.standbyFlag.Load() {
		return
	}
	now := h.now()
	for phys, e := range h.physOut {
		if m := h.mirror[phys]; m != nil {
			m.Append(tuple.NewTokenAt(tok, now))
		}
		e.Append(tuple.NewTokenAt(tok, now))
		if !h.flushPort(ctx, phys) {
			return
		}
	}
}

// deliverOut stamps, preserves, retains and enqueues a data tuple on a
// logical output port, flushing when the batch fills. On a routed port the
// key router picks the edge (one per downstream replica); sequence numbers
// and preservation are per physical edge. Returns false if the context died
// mid-send.
func (h *HAU) deliverOut(port int, t *tuple.Tuple) bool {
	if port < 0 || port >= len(h.out) {
		h.setErr(fmt.Errorf("spe: %s emitted to invalid port %d", h.cfg.ID, port))
		return false
	}
	op := h.out[port]
	idx := 0
	if op.Router != nil {
		idx = op.Router.Route(t.Key)
		if idx < 0 || idx >= len(op.Edges) {
			h.setErr(fmt.Errorf("spe: %s port %d router chose edge %d of %d", h.cfg.ID, port, idx, len(op.Edges)))
			return false
		}
	}
	phys := h.outBase[port] + idx
	e := op.Edges[idx]
	if h.standbyFlag.Load() {
		// Suppressed standby: stamp the sequence (the seq->tuple mapping
		// must match the primary's exactly) and ring the tuple for a
		// possible promotion, but never touch the shared edge. Shedding is
		// skipped — it would desynchronize the sequence streams, which is
		// why protection requires shedding disabled.
		h.outSeq[phys]++
		t.Seq = h.outSeq[phys]
		h.ringPush(phys, t)
		return true
	}
	if h.cfg.ShedWatermark > 0 {
		if float64(e.Occupancy()) > h.cfg.ShedWatermark*float64(e.Cap()) {
			h.shed.Add(1)
			return true // overload: drop instead of blocking upstream
		}
	}
	h.outSeq[phys]++
	t.Seq = h.outSeq[phys]
	if h.cfg.Preserver != nil {
		// Copy-on-retain: the preserver takes ownership of a header copy
		// sharing the (immutable) payload; the original continues
		// downstream. The actual append is batched into flushPres.
		h.presPending[phys] = append(h.presPending[phys], t.Retain())
	}
	if h.retaining {
		h.retained = append(h.retained, retainedTuple{port: phys, t: t.Retain()})
	}
	if m := h.mirror[phys]; m != nil {
		// Tee after stamping so the copy carries the main edge's sequence
		// number — the standby's view of this stream.
		cp := t.Retain()
		h.mirrorBytes.Add(cp.Size())
		m.Append(cp)
		if m.Full() && !m.Flush(h.ctx) {
			return false
		}
	}
	e.Append(t)
	if e.Full() {
		return h.flushPort(h.ctx, phys)
	}
	return true
}

// ringPush appends a stamped tuple to the standby's suppression ring for
// one physical edge, evicting the oldest entries past the cap. Evicted
// tuples are strictly older than anything the primary could still have
// undelivered, so downstream already has them.
func (h *HAU) ringPush(phys int, t *tuple.Tuple) {
	e := h.physOut[phys]
	max := h.cfg.StandbyRing
	if max <= 0 {
		max = 4 * (e.Cap() + e.BatchSize())
	}
	r := h.rings[phys]
	if n := len(r) - max + 1; n > 0 {
		for i := 0; i < n; i++ {
			tuple.Put(r[i])
			r[i] = nil
		}
		r = append(r[:0], r[n:]...)
		h.ringCount.Add(int64(-n))
	}
	h.rings[phys] = append(r, t)
	h.ringCount.Add(1)
}

// RingTuples returns how many suppressed output tuples the standby's
// rings currently hold (0 once promoted — the failover metric reads it
// just before CmdPromote re-emits them).
func (h *HAU) RingTuples() int64 { return h.ringCount.Load() }

// promote turns a suppressed standby into the live HAU: re-emit the
// suppression rings onto the (previously shared, now exclusively ours)
// output edges — downstream dedup drops whatever the dead primary already
// delivered — then re-broadcast the latest checkpoint tokens in case the
// primary died before broadcasting its own. Receivers drop stale
// duplicates, so the re-broadcast is idempotent.
func (h *HAU) promote(ctx context.Context) {
	if !h.standbyFlag.Load() {
		return
	}
	h.standbyFlag.Store(false)
	for phys, ring := range h.rings {
		e := h.physOut[phys]
		for i, t := range ring {
			e.Append(t)
			ring[i] = nil
			if e.Full() && !e.Flush(ctx) {
				return
			}
		}
		h.rings[phys] = nil
	}
	h.ringCount.Store(0)
	if !h.flushAll(ctx) {
		return
	}
	if h.doneEpoch > 0 {
		h.broadcastToken(ctx, tuple.Token{Epoch: h.doneEpoch, Kind: tuple.OneHop, From: h.cfg.ID})
	}
	switch {
	case h.awaiting:
		h.broadcastToken(ctx, tuple.Token{Epoch: h.pendingEp, Kind: tuple.OneHop, From: h.cfg.ID})
	case h.ucapArmed:
		h.broadcastToken(ctx, tuple.Token{Epoch: h.ucapEpoch, Kind: tuple.OneHop, From: h.cfg.ID})
	}
}
