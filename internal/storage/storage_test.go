package storage

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// fastSpec is a disk that accounts cost but never sleeps.
func fastSpec() DiskSpec {
	return DiskSpec{BandwidthBps: 100 << 20, Latency: 5 * time.Millisecond, TimeScale: 0}
}

func TestDiskCostModel(t *testing.T) {
	spec := DiskSpec{BandwidthBps: 100, Latency: time.Second}
	// 50 bytes at 100 B/s = 0.5 s transfer + 1 s latency.
	if got, want := spec.Cost(50), 1500*time.Millisecond; got != want {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
}

func TestDiskCostZeroBandwidth(t *testing.T) {
	spec := DiskSpec{Latency: time.Millisecond}
	if got := spec.Cost(1 << 30); got != time.Millisecond {
		t.Fatalf("zero-bandwidth cost = %v, want latency only", got)
	}
}

func TestDiskStats(t *testing.T) {
	d := NewDisk(fastSpec())
	d.Write(1000)
	d.Write(500)
	d.Read(200)
	s := d.Stats()
	if s.Ops != 3 || s.BytesWritten != 1500 || s.BytesRead != 200 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusyTime < 15*time.Millisecond {
		t.Fatalf("busy time %v too small (3 ops x 5ms latency)", s.BusyTime)
	}
}

func TestDiskActuallySleeps(t *testing.T) {
	d := NewDisk(DiskSpec{BandwidthBps: 1 << 30, Latency: 20 * time.Millisecond, TimeScale: 1})
	start := time.Now()
	d.Write(1)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("write returned after %v, expected ~20ms sleep", elapsed)
	}
}

func TestDiskSerializesWriters(t *testing.T) {
	// Two concurrent 20ms ops on one disk must take ~40ms wall time.
	d := NewDisk(DiskSpec{Latency: 20 * time.Millisecond, TimeScale: 1})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); d.Write(0) }()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("concurrent ops overlapped: %v", elapsed)
	}
}

func TestStorePutGet(t *testing.T) {
	s := NewStore(fastSpec())
	if _, err := s.Put("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("Get = %q", got)
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := NewStore(fastSpec())
	if _, _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestStoreCopiesData(t *testing.T) {
	s := NewStore(fastSpec())
	data := []byte("abc")
	s.Put("k", data)
	data[0] = 'z'
	got, _, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatal("Put did not copy its input")
	}
	got[0] = 'q'
	got2, _, _ := s.Get("k")
	if string(got2) != "abc" {
		t.Fatal("Get did not copy its output")
	}
}

func TestStoreDownBehaviour(t *testing.T) {
	s := NewStore(fastSpec())
	s.Put("k", []byte("v"))
	s.SetDown(true)
	if _, err := s.Put("x", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Put while down: %v", err)
	}
	if _, _, err := s.Get("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Get while down: %v", err)
	}
	if s.Has("k") {
		t.Fatal("Has while down must be false")
	}
	s.SetDown(false)
	if !s.Has("k") {
		t.Fatal("data lost across downtime")
	}
}

func TestStoreDeleteIdempotent(t *testing.T) {
	s := NewStore(fastSpec())
	s.Put("k", []byte("v"))
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal("second delete errored")
	}
	if s.Has("k") {
		t.Fatal("key survived delete")
	}
}

func TestStoreKeysPrefix(t *testing.T) {
	s := NewStore(fastSpec())
	s.Put("a/1", nil)
	s.Put("a/2", nil)
	s.Put("b/1", nil)
	keys := s.Keys("a/")
	if len(keys) != 2 || keys[0] != "a/1" || keys[1] != "a/2" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestStoreSize(t *testing.T) {
	s := NewStore(fastSpec())
	s.Put("a", make([]byte, 100))
	s.Put("b", make([]byte, 50))
	if s.Size() != 150 {
		t.Fatalf("Size = %d", s.Size())
	}
	s.Put("a", make([]byte, 10)) // overwrite shrinks
	if s.Size() != 60 {
		t.Fatalf("Size after overwrite = %d", s.Size())
	}
}

func TestCatalogCompletion(t *testing.T) {
	c := NewCatalog(NewStore(fastSpec()), []string{"h1", "h2", "h3"})
	if _, ok := c.MostRecentComplete(); ok {
		t.Fatal("fresh catalog reports a complete epoch")
	}
	_, done, err := c.SaveState(1, "h1", []byte("s1"))
	if err != nil || done {
		t.Fatalf("first save: done=%v err=%v", done, err)
	}
	c.SaveState(1, "h2", []byte("s2"))
	_, done, _ = c.SaveState(1, "h3", []byte("s3"))
	if !done {
		t.Fatal("third save should complete the epoch")
	}
	e, ok := c.MostRecentComplete()
	if !ok || e != 1 {
		t.Fatalf("MRC = %d,%v", e, ok)
	}
}

func TestCatalogIncompleteEpochIgnored(t *testing.T) {
	c := NewCatalog(NewStore(fastSpec()), []string{"h1", "h2"})
	c.SaveState(1, "h1", nil)
	c.SaveState(1, "h2", nil)
	c.SaveState(2, "h1", nil) // epoch 2 never completes (failure mid-ckpt)
	e, ok := c.MostRecentComplete()
	if !ok || e != 1 {
		t.Fatalf("MRC = %d,%v; want 1", e, ok)
	}
}

func TestCatalogOutOfOrderCompletion(t *testing.T) {
	c := NewCatalog(NewStore(fastSpec()), []string{"h1", "h2"})
	c.SaveState(2, "h1", nil)
	c.SaveState(2, "h2", nil) // epoch 2 completes first
	c.SaveState(1, "h1", nil)
	c.SaveState(1, "h2", nil) // epoch 1 completes late
	e, ok := c.MostRecentComplete()
	if !ok || e != 2 {
		t.Fatalf("MRC = %d,%v; want 2", e, ok)
	}
}

func TestCatalogWaitForEpoch(t *testing.T) {
	c := NewCatalog(NewStore(fastSpec()), []string{"h1", "h2"})
	go func() {
		time.Sleep(5 * time.Millisecond)
		c.SaveState(1, "h1", nil)
		c.SaveState(1, "h2", nil)
	}()
	if err := c.WaitForEpoch(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForEpoch(0, 0); err != nil {
		t.Fatalf("an older epoch: %v", err)
	}
	if err := c.WaitForEpoch(2, 20*time.Millisecond); err == nil {
		t.Fatal("a future epoch reported complete")
	}
}

func TestCatalogUnknownHAU(t *testing.T) {
	c := NewCatalog(NewStore(fastSpec()), []string{"h1"})
	if _, _, err := c.SaveState(1, "intruder", nil); err == nil {
		t.Fatal("unknown HAU accepted")
	}
}

func TestCatalogLoadRoundTrip(t *testing.T) {
	c := NewCatalog(NewStore(fastSpec()), []string{"h1"})
	c.SaveState(4, "h1", []byte("state-bytes"))
	got, _, err := c.LoadState(4, "h1")
	if err != nil || string(got) != "state-bytes" {
		t.Fatalf("LoadState = %q, %v", got, err)
	}
}

func TestCatalogGC(t *testing.T) {
	st := NewStore(fastSpec())
	c := NewCatalog(st, []string{"h1"})
	for e := uint64(1); e <= 3; e++ {
		c.SaveState(e, "h1", []byte{byte(e)})
	}
	c.GC(3)
	if _, _, err := c.LoadState(1, "h1"); err == nil {
		t.Fatal("epoch 1 survived GC")
	}
	if _, _, err := c.LoadState(3, "h1"); err != nil {
		t.Fatalf("epoch 3 collected: %v", err)
	}
	e, ok := c.MostRecentComplete()
	if !ok || e != 3 {
		t.Fatalf("MRC after GC = %d,%v", e, ok)
	}
}

func TestCatalogLatestEpochFor(t *testing.T) {
	c := NewCatalog(NewStore(fastSpec()), []string{"h1", "h2"})
	if _, ok := c.LatestEpochFor("h1"); ok {
		t.Fatal("fresh catalog has an epoch for h1")
	}
	c.SaveState(3, "h1", nil)
	c.SaveState(5, "h1", nil)
	c.SaveState(4, "h2", nil)
	if e, ok := c.LatestEpochFor("h1"); !ok || e != 5 {
		t.Fatalf("LatestEpochFor(h1) = %d,%v", e, ok)
	}
	if e, ok := c.LatestEpochFor("h2"); !ok || e != 4 {
		t.Fatalf("LatestEpochFor(h2) = %d,%v", e, ok)
	}
}

func TestCatalogEpochProgress(t *testing.T) {
	c := NewCatalog(NewStore(fastSpec()), []string{"h1", "h2", "h3"})
	c.SaveState(1, "h1", nil)
	saved, total := c.EpochProgress(1)
	if saved != 1 || total != 3 {
		t.Fatalf("progress = %d/%d", saved, total)
	}
}

func TestQuickStoreRoundTrip(t *testing.T) {
	s := NewStore(fastSpec())
	f := func(key string, val []byte) bool {
		if key == "" {
			key = "k"
		}
		if _, err := s.Put(key, val); err != nil {
			return false
		}
		got, _, err := s.Get(key)
		if err != nil || len(got) != len(val) {
			return false
		}
		for i := range val {
			if got[i] != val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCatalogMRCMonotone(t *testing.T) {
	// Completing epochs in any order never decreases MostRecentComplete.
	f := func(perm []byte) bool {
		if len(perm) == 0 {
			return true
		}
		c := NewCatalog(NewStore(fastSpec()), []string{"h"})
		best := uint64(0)
		for _, p := range perm {
			e := uint64(p%16) + 1
			c.SaveState(e, "h", nil)
			if e > best {
				best = e
			}
			got, ok := c.MostRecentComplete()
			if !ok || got != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
