package buffer

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

func fastDisk() *storage.Disk {
	return storage.NewDisk(storage.DiskSpec{BandwidthBps: 1 << 30, Latency: time.Microsecond, TimeScale: 0})
}

func fastStore() *storage.Store {
	return storage.NewStore(storage.DiskSpec{BandwidthBps: 1 << 30, Latency: time.Microsecond, TimeScale: 0})
}

func mk(id uint64, payload int) *tuple.Tuple {
	return tuple.New(id, "S", "k", make([]byte, payload))
}

func TestPreserverAppendReplay(t *testing.T) {
	p := NewPreserver(1, 1<<20, fastDisk())
	for i := uint64(1); i <= 5; i++ {
		seq, err := p.Append(0, mk(i, 10))
		if err != nil {
			t.Fatal(err)
		}
		if seq != i {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	got, err := p.Replay(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != 3 {
		t.Fatalf("Replay(after=2) = %d tuples, first ID %d", len(got), got[0].ID)
	}
}

func TestPreserverTrim(t *testing.T) {
	p := NewPreserver(1, 1<<20, fastDisk())
	for i := uint64(1); i <= 10; i++ {
		p.Append(0, mk(i, 10))
	}
	p.Trim(0, 7)
	got, _ := p.Replay(0, 0)
	if len(got) != 3 || got[0].ID != 8 {
		t.Fatalf("after trim: %d tuples, first %d", len(got), got[0].ID)
	}
	if s := p.Stats(); s.Entries != 3 {
		t.Fatalf("Stats.Entries = %d", s.Entries)
	}
}

func TestPreserverTrimAll(t *testing.T) {
	p := NewPreserver(1, 1<<20, nil)
	p.Append(0, mk(1, 10))
	p.Trim(0, 99)
	if s := p.Stats(); s.Entries != 0 || s.MemBytes != 0 {
		t.Fatalf("Stats after full trim = %+v", s)
	}
}

func TestPreserverPortsIndependent(t *testing.T) {
	p := NewPreserver(2, 1<<20, nil)
	p.Append(0, mk(1, 10))
	p.Append(1, mk(2, 10))
	p.Append(1, mk(3, 10))
	p.Trim(0, 10)
	got0, _ := p.Replay(0, 0)
	got1, _ := p.Replay(1, 0)
	if len(got0) != 0 || len(got1) != 2 {
		t.Fatalf("port isolation broken: %d, %d", len(got0), len(got1))
	}
}

func TestPreserverBadPort(t *testing.T) {
	p := NewPreserver(1, 1<<20, nil)
	if _, err := p.Append(1, mk(1, 1)); err == nil {
		t.Fatal("out-of-range port accepted")
	}
	if _, err := p.Replay(-1, 0); err == nil {
		t.Fatal("negative port accepted")
	}
}

func TestPreserverSpill(t *testing.T) {
	disk := fastDisk()
	p := NewPreserver(1, 200, disk) // tiny cap
	// Each tuple ~ 88 header + 1 src + 1 key + 50 payload = 140 bytes.
	p.Append(0, mk(1, 50))
	if disk.Stats().BytesWritten != 0 {
		t.Fatal("spilled below cap")
	}
	p.Append(0, mk(2, 50))
	st := disk.Stats()
	if st.BytesWritten == 0 {
		t.Fatal("no spill above cap")
	}
	if s := p.Stats(); s.MemBytes != 0 || s.SpilledBytes == 0 {
		t.Fatalf("post-spill stats = %+v", s)
	}
	// Replaying spilled entries charges disk reads.
	before := disk.Stats().BytesRead
	got, _ := p.Replay(0, 0)
	if len(got) != 2 {
		t.Fatalf("replay after spill = %d tuples", len(got))
	}
	if disk.Stats().BytesRead <= before {
		t.Fatal("spilled replay did not charge disk reads")
	}
}

func TestPreserverCloneIsolation(t *testing.T) {
	p := NewPreserver(1, 1<<20, nil)
	orig := mk(1, 4)
	p.Append(0, orig)
	orig.Data[0] = 0xFF
	got, _ := p.Replay(0, 0)
	if got[0].Data[0] == 0xFF {
		t.Fatal("preserver shares payload with caller")
	}
}

func TestSourceLogAppendReplay(t *testing.T) {
	l := NewSourceLog("S0", fastStore(), 0) // flush every append
	for i := uint64(1); i <= 4; i++ {
		if err := l.Append(mk(i, 8)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.ReplaySince(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0].ID != 1 || got[3].ID != 4 {
		t.Fatalf("replay = %v tuples", len(got))
	}
}

func TestSourceLogEpochSegmentation(t *testing.T) {
	l := NewSourceLog("S0", fastStore(), 0)
	l.Append(mk(1, 8))
	l.BeginEpoch(1)
	l.Append(mk(2, 8))
	l.Append(mk(3, 8))
	got, _ := l.ReplaySince(1)
	if len(got) != 2 || got[0].ID != 2 {
		t.Fatalf("ReplaySince(1) = %d tuples first=%v", len(got), got[0].ID)
	}
	all, _ := l.ReplaySince(0)
	if len(all) != 3 {
		t.Fatalf("ReplaySince(0) = %d tuples", len(all))
	}
}

func TestSourceLogPrune(t *testing.T) {
	st := fastStore()
	l := NewSourceLog("S0", st, 0)
	l.Append(mk(1, 8))
	l.BeginEpoch(1)
	l.Append(mk(2, 8))
	l.Prune(1)
	if n := l.PreservedCount(); n != 1 {
		t.Fatalf("PreservedCount after prune = %d", n)
	}
	if keys := st.Keys("preserve/S0/"); len(keys) != 1 {
		t.Fatalf("store keys after prune = %v", keys)
	}
	got, _ := l.ReplaySince(0)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("replay after prune = %+v", got)
	}
}

func TestSourceLogGroupCommit(t *testing.T) {
	st := fastStore()
	l := NewSourceLog("S0", st, 1<<20) // huge flush threshold
	l.Append(mk(1, 8))
	l.Append(mk(2, 8))
	if st.Disk().Stats().Ops != 0 {
		t.Fatal("flushed before threshold")
	}
	// Replay must still see pending tuples (it flushes first).
	got, _ := l.ReplaySince(0)
	if len(got) != 2 {
		t.Fatalf("replay = %d tuples", len(got))
	}
	if st.Disk().Stats().Ops == 0 {
		t.Fatal("replay did not flush pending batch")
	}
}

func TestSourceLogStableWriteBeforeSend(t *testing.T) {
	st := fastStore()
	l := NewSourceLog("S0", st, 0)
	l.Append(mk(1, 8))
	// With flushBytes=0 the tuple must be on stable storage already.
	if len(st.Keys("preserve/S0/")) != 1 {
		t.Fatal("tuple not persisted before send")
	}
}

func TestSourceLogEpochQuery(t *testing.T) {
	l := NewSourceLog("S0", nil, 0)
	if l.Epoch() != 0 {
		t.Fatal("fresh log epoch != 0")
	}
	l.BeginEpoch(7)
	if l.Epoch() != 7 {
		t.Fatal("BeginEpoch not visible")
	}
}

// Property: replay(after) ∘ trim(k) never yields a tuple with seq <= k and
// preserves order.
func TestQuickPreserverTrimReplay(t *testing.T) {
	f := func(n uint8, trimAt uint8) bool {
		p := NewPreserver(1, 1<<20, nil)
		total := uint64(n%64) + 1
		for i := uint64(1); i <= total; i++ {
			p.Append(0, mk(i, 4))
		}
		k := uint64(trimAt) % (total + 1)
		p.Trim(0, k)
		got, err := p.Replay(0, 0)
		if err != nil {
			return false
		}
		if uint64(len(got)) != total-k {
			return false
		}
		for i, tp := range got {
			if tp.ID != k+uint64(i)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a source log replay returns exactly the tuples appended since
// the queried epoch, in order, regardless of flush threshold.
func TestQuickSourceLogReplayExact(t *testing.T) {
	f := func(n uint8, flushEvery uint8, epochSwitch uint8) bool {
		l := NewSourceLog("S", fastStore(), int64(flushEvery%5)*40)
		total := uint64(n%50) + 1
		sw := uint64(epochSwitch) % (total + 1)
		for i := uint64(1); i <= total; i++ {
			if i == sw+1 {
				if err := l.BeginEpoch(1); err != nil {
					return false
				}
			}
			if err := l.Append(mk(i, 4)); err != nil {
				return false
			}
		}
		since := uint64(0)
		want := total
		got, err := l.ReplaySince(since)
		if err != nil || uint64(len(got)) != want {
			return false
		}
		for i, tp := range got {
			if tp.ID != uint64(i)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSourceLogReplayRoundTrip is what a repeated recovery sees: tuples
// appended across three epochs under a flush threshold that splits each
// epoch over several segments, epoch 1 pruned, then ReplaySince(2) twice
// (a kill during recovery replays the same range again). Both calls must
// return the preserved tuples field for field and in order, and each call
// must own its headers.
func TestSourceLogReplayRoundTrip(t *testing.T) {
	st := fastStore()
	l := NewSourceLog("S0", st, 3*mk(0, 20).Size()) // about 3 tuples a segment
	var want []*tuple.Tuple
	id := uint64(0)
	for epoch := uint64(1); epoch <= 3; epoch++ {
		if err := l.BeginEpoch(epoch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ { // 7 is not a multiple of the segment size
			id++
			src := "S0"
			if i == 3 {
				src = "relabelled" // not the log's own id
			}
			tp := tuple.NewAt(id, src, "k"+string(rune('a'+i)), int64(1000+id), make([]byte, int(id%4)*10))
			for j := range tp.Data {
				tp.Data[j] = byte(id + uint64(j))
			}
			tp.Seq = id * 3
			if err := l.Append(tp); err != nil {
				t.Fatal(err)
			}
			if epoch >= 2 {
				want = append(want, tp.Clone())
			}
			tp.Data = append(tp.Data[:0], 0xFF) // the sender's buffer moves on
		}
	}
	l.Prune(2)
	for _, k := range st.Keys("preserve/S0/") {
		if strings.HasPrefix(k, "preserve/S0/0000000000000001/") {
			t.Fatalf("epoch-1 segment %s survived the prune", k)
		}
	}
	first, err := l.ReplaySince(2)
	if err != nil {
		t.Fatal(err)
	}
	if n := l.PreservedCount(); n != len(want) { // replay flushed the rest
		t.Fatalf("PreservedCount = %d, want %d", n, len(want))
	}
	second, err := l.ReplaySince(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]*tuple.Tuple{first, second} {
		if len(got) != len(want) {
			t.Fatalf("replay = %d tuples, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("replay[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	for _, tp := range first {
		tp.ID, tp.Key, tp.Seq, tp.Data = 0, "mutated", 0, nil
	}
	for i := range want {
		if !reflect.DeepEqual(second[i], want[i]) {
			t.Fatalf("mutating the first replay changed the second: [%d] = %+v", i, second[i])
		}
	}
}

// TestSourceLogConcurrentReplayInOrder replays while the source keeps
// appending, as a recovery fetch does beside a live source. Flushes from
// both sides overlap on a multi-stripe store, yet every replay must be a
// gap-free prefix of the appended stream that holds at least every tuple
// appended before the call.
func TestSourceLogConcurrentReplayInOrder(t *testing.T) {
	st := storage.NewStore(storage.DiskSpec{BandwidthBps: 1 << 30, Latency: 20 * time.Microsecond, TimeScale: 1, Stripes: 4})
	l := NewSourceLog("S0", st, 2*mk(0, 8).Size())
	const n = 600
	var appended atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := uint64(1); id <= n; id++ {
			if err := l.Append(mk(id, 8)); err != nil {
				t.Error(err)
				return
			}
			appended.Store(id)
		}
	}()
	for replays := 0; ; replays++ {
		select {
		case <-done:
			if replays == 0 {
				t.Fatal("no replay overlapped the appends")
			}
			return
		default:
		}
		before := appended.Load()
		got, err := l.ReplaySince(0)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(got)) < before {
			t.Fatalf("replay returned %d tuples, %d were appended before it", len(got), before)
		}
		for i, tp := range got {
			if tp.ID != uint64(i+1) {
				t.Fatalf("replay[%d] = tuple %d: preservation order broken", i, tp.ID)
			}
		}
	}
}
