package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"meteorshower/internal/operator"
)

// streamDigest drives fn through a bounded RateSource exactly as a
// deployment does (per-tuple reseeded generator) and hashes the first n
// keys and payloads, each length-prefixed.
func streamDigest(t *testing.T, id string, seed int64, fn operator.PayloadFn, n int) string {
	t.Helper()
	src := operator.NewRateSource(id, 1, seed, fn)
	src.MaxRate = true
	src.CatchUpCap = n
	src.Limit = uint64(n)
	src.Generate(0) // first call only starts the clock
	ts := src.Generate(1)
	if len(ts) != n {
		t.Fatalf("%s: generated %d tuples, want %d", id, len(ts), n)
	}
	h := sha256.New()
	var l [4]byte
	for _, tp := range ts {
		binary.LittleEndian.PutUint32(l[:], uint32(len(tp.Key)))
		h.Write(l[:])
		h.Write([]byte(tp.Key))
		binary.LittleEndian.PutUint32(l[:], uint32(len(tp.Data)))
		h.Write(l[:])
		h.Write(tp.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPositionPayloadGolden pins the TMI source stream byte for byte:
// replay after recovery and perfbench's closed-form output count both
// assume a regenerated stream is identical to the original, so any
// rewrite of the generator must keep these digests.
func TestPositionPayloadGolden(t *testing.T) {
	cases := []struct {
		src, phones int
		want        string
	}{
		{0, 40, "7d99369ce74cb7e726598c0883d45d96fd3d1874bcf0a4d776a8d25384a4f59f"},
		{1, 40, "3256942084cadc0d1a7ee6669f62558a7fcc8bd82baf24de75e26459ccf5ca2b"},
		{0, 900, "6e235ec3e08d8f51e7f2f489e8eebc354201ab32ac7062bce8ab3073f30b091c"},
		{1, 900, "a2407bfc8384b3ff484c669ad65def72d8066f7043237d6ae3c816a0962aaa17"},
	}
	for _, c := range cases {
		got := streamDigest(t, "S"+itoa(c.src), 7+int64(c.src), PositionPayload(c.src, c.phones, 140), 10000)
		if got != c.want {
			t.Errorf("PositionPayload(src=%d, phones=%d) digest = %s, want %s", c.src, c.phones, got, c.want)
		}
	}
}

// TestBytePayloadGolden pins operator.BytePayload's stream the same way.
func TestBytePayloadGolden(t *testing.T) {
	cases := []struct {
		size, keys int
		want       string
	}{
		{16, 4, "32604a05717fc3eadfef828d3b75c3bf3a971550b7e4e0e80e306d096b4de680"},
		{64, 900, "f2546bede96e0d9971e56c9e6e859b1dda6527e86849e63f80d43a82bea2f2be"},
	}
	for _, c := range cases {
		got := streamDigest(t, "S", 7, operator.BytePayload(c.size, c.keys), 10000)
		if got != c.want {
			t.Errorf("BytePayload(%d, %d) digest = %s, want %s", c.size, c.keys, got, c.want)
		}
	}
}
