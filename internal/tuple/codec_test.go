package tuple

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sameTuple(a, b *Tuple) bool {
	if a.ID != b.ID || a.Seq != b.Seq || a.Ts != b.Ts || a.Src != b.Src || a.Key != b.Key {
		return false
	}
	if !bytes.Equal(a.Data, b.Data) {
		return false
	}
	if (a.Tok == nil) != (b.Tok == nil) {
		return false
	}
	if a.Tok != nil && *a.Tok != *b.Tok {
		return false
	}
	return true
}

func TestMarshalRoundTrip(t *testing.T) {
	orig := &Tuple{ID: 42, Src: "S1", Key: "group-7", Ts: 123456789, Data: []byte("hello world")}
	got, n, err := Unmarshal(orig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if n != orig.MarshalledSize() {
		t.Fatalf("consumed %d, want %d", n, orig.MarshalledSize())
	}
	if !sameTuple(orig, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", orig, got)
	}
}

func TestMarshalRoundTripToken(t *testing.T) {
	orig := &Tuple{ID: 1, Ts: 5, Tok: &Token{Epoch: 9, Kind: OneHop, From: "H3"}}
	got, _, err := Unmarshal(orig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuple(orig, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", orig, got)
	}
}

func TestMarshalRoundTripEmpty(t *testing.T) {
	orig := &Tuple{}
	got, _, err := Unmarshal(orig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuple(orig, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", orig, got)
	}
}

func TestUnmarshalBadMagic(t *testing.T) {
	if _, _, err := Unmarshal([]byte{0, 0, 0, 0, 0}); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	full := (&Tuple{ID: 1, Src: "source", Key: "key", Data: []byte("0123456789")}).Marshal()
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Unmarshal(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(full))
		}
	}
}

func TestMarshalledSizeExact(t *testing.T) {
	tp := &Tuple{ID: 3, Src: "abc", Key: "de", Data: []byte{1, 2, 3, 4},
		Tok: &Token{Epoch: 1, From: "xy"}}
	if got := len(tp.Marshal()); got != tp.MarshalledSize() {
		t.Fatalf("MarshalledSize=%d, actual=%d", tp.MarshalledSize(), got)
	}
}

func TestMarshalManyRoundTrip(t *testing.T) {
	in := []*Tuple{
		New(1, "S0", "a", []byte("x")),
		NewToken(Token{Epoch: 2, Kind: Cascading, From: "S0"}),
		New(2, "S0", "b", nil),
	}
	out, err := UnmarshalMany(MarshalMany(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if !sameTuple(in[i], out[i]) {
			t.Fatalf("tuple %d mismatch", i)
		}
	}
}

func TestUnmarshalManyEmpty(t *testing.T) {
	out, err := UnmarshalMany(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
}

func TestUnmarshalManyCorrupt(t *testing.T) {
	buf := MarshalMany([]*Tuple{New(1, "S", "k", []byte("ab"))})
	buf = append(buf, 0xFF) // trailing garbage
	if _, err := UnmarshalMany(buf); err == nil {
		t.Fatal("corrupt trailer not detected")
	}
}

// quickTuple builds an arbitrary tuple from the quick fuzzer's values.
func quickTuple(r *rand.Rand) *Tuple {
	t := &Tuple{
		ID:  r.Uint64(),
		Seq: r.Uint64(),
		Ts:  r.Int63(),
		Src: randString(r, 8),
		Key: randString(r, 16),
	}
	if n := r.Intn(64); n > 0 {
		t.Data = make([]byte, n)
		r.Read(t.Data)
	}
	if r.Intn(2) == 0 {
		t.Tok = &Token{Epoch: r.Uint64(), Kind: TokenKind(r.Intn(2)), From: randString(r, 6)}
	}
	return t
}

func randString(r *rand.Rand, max int) string {
	n := r.Intn(max + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := quickTuple(r)
		got, n, err := Unmarshal(orig.Marshal())
		return err == nil && n == orig.MarshalledSize() && sameTuple(orig, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEqualButDistinct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := quickTuple(r)
		c := orig.Clone()
		if !sameTuple(orig, c) {
			return false
		}
		// Mutating the clone must not touch the original.
		if len(c.Data) > 0 {
			c.Data[0]++
			if reflect.DeepEqual(orig.Data, c.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	tp := New(1, "S0", "key", make([]byte, 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tp.Marshal()
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	buf := New(1, "S0", "key", make([]byte, 256)).Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// UnmarshalShared aliases the payload (capacity-clipped) and overwrites a
// reused header completely; Unmarshal copies the payload.
func TestUnmarshalSharedAliasesPayload(t *testing.T) {
	a := &Tuple{ID: 1, Src: "S1", Key: "k", Data: []byte("abc")}
	b := &Tuple{ID: 2, Src: "S1", Key: "k2", Tok: &Token{Epoch: 3, From: "S1"}}
	buf := b.AppendMarshal(a.Marshal())
	into := &Tuple{Data: []byte("stale"), Tok: &Token{}}
	n, err := into.UnmarshalShared(buf, "S1")
	if err != nil || !sameTuple(into, a) {
		t.Fatalf("first = %+v, %v", into, err)
	}
	if cap(into.Data) != len(into.Data) {
		t.Fatal("payload capacity reaches into the next encoding")
	}
	buf[n-1] = 'z' // last payload byte of the first encoding
	if into.Data[2] != 'z' {
		t.Fatal("UnmarshalShared copied the payload")
	}
	if _, err := into.UnmarshalShared(buf[n:], "S1"); err != nil || !sameTuple(into, b) {
		t.Fatalf("second into a reused header = %+v, %v", into, err)
	}
	cp, _, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[n-1] = 'y'
	if cp.Data[2] != 'z' {
		t.Fatal("Unmarshal shares the payload with the buffer")
	}
}
