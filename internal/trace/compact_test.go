package trace

import (
	"testing"

	"texcache/internal/cache"
	"texcache/internal/obs"
)

// texturedAddrs builds an address stream with the locality shape of a
// texture-mapped frame: runs of small steps inside a block, jumps at
// block and region boundaries, occasional far jumps between textures.
func texturedAddrs(n int) []uint64 {
	addrs := make([]uint64, n)
	addr := uint64(1 << 21)
	for i := range addrs {
		switch {
		case i%1009 == 0:
			addr = uint64((i*2654435761 + 12345) % (1 << 26))
		case i%31 == 0:
			addr += 8192
		case i%5 == 0:
			addr -= 4
		default:
			addr += 4
		}
		addrs[i] = addr
	}
	return addrs
}

func TestCompactRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, blockLen - 1, blockLen, blockLen + 1, 3*blockLen + 99} {
		addrs := texturedAddrs(n)
		c := CompactFromAddrs(addrs)
		if c.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, c.Len())
		}
		got := c.Decode()
		if got.Len() != n {
			t.Fatalf("n=%d: decoded %d addresses", n, got.Len())
		}
		for i := range addrs {
			if got.Addrs[i] != addrs[i] {
				t.Fatalf("n=%d: address %d decoded as %d, want %d", n, i, got.Addrs[i], addrs[i])
			}
		}
		if err := c.validate(); err != nil {
			t.Fatalf("n=%d: validate: %v", n, err)
		}
	}
}

func TestCompactFromTrace(t *testing.T) {
	tr := &cache.Trace{Addrs: texturedAddrs(5000)}
	c := CompactFromTrace(tr)
	got := c.Decode()
	for i := range tr.Addrs {
		if got.Addrs[i] != tr.Addrs[i] {
			t.Fatalf("address %d: %d != %d", i, got.Addrs[i], tr.Addrs[i])
		}
	}
}

func TestCompactExtremeDeltas(t *testing.T) {
	// Alternating extremes produce the largest possible zigzag deltas;
	// the encoding must survive full-width swings in both directions.
	addrs := []uint64{0, ^uint64(0), 0, 1 << 63, 1, ^uint64(0) - 1, 42}
	c := CompactFromAddrs(addrs)
	got := c.Decode()
	for i := range addrs {
		if got.Addrs[i] != addrs[i] {
			t.Fatalf("address %d: %d != %d", i, got.Addrs[i], addrs[i])
		}
	}
}

func TestCompactRatio(t *testing.T) {
	addrs := texturedAddrs(200000)
	c := CompactFromAddrs(addrs)
	if r := c.Ratio(); r < 3 {
		t.Errorf("compression ratio %.2f on texture-like stream, want >= 3", r)
	}
	if c.SizeBytes() != len(c.data) {
		t.Errorf("SizeBytes %d != data length %d", c.SizeBytes(), len(c.data))
	}
	var empty Compact
	if empty.Ratio() != 0 {
		t.Errorf("empty trace ratio = %v, want 0", empty.Ratio())
	}
}

// TestCompactReplayMatchesTrace is the bit-identity check at the unit
// level: replaying the compact form through the cache simulator yields
// exactly the statistics of the materialized trace.
func TestCompactReplayMatchesTrace(t *testing.T) {
	tr := &cache.Trace{Addrs: texturedAddrs(150000)}
	c := CompactFromTrace(tr)

	cfg := cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}
	want := cache.NewClassifying(cfg)
	want.AccessBatch(tr.Addrs)
	got := cache.NewClassifying(cfg)
	cache.ReplayStream(c, got.Sink())
	if got.Stats() != want.Stats() {
		t.Errorf("compact replay %+v != materialized %+v", got.Stats(), want.Stats())
	}
}

func TestCompactCursorsIndependent(t *testing.T) {
	c := CompactFromAddrs(texturedAddrs(3 * blockLen))
	a, b := c.Cursor(), c.Cursor()
	ba := a.Next()
	bb := b.Next()
	if &ba[0] == &bb[0] {
		t.Fatal("two cursors share a decode buffer")
	}
	// Draining one cursor must not disturb the other.
	for blk := a.Next(); blk != nil; blk = a.Next() {
	}
	n := len(bb)
	for blk := b.Next(); blk != nil; blk = b.Next() {
		n += len(blk)
	}
	if n != c.Len() {
		t.Fatalf("second cursor yielded %d addresses, want %d", n, c.Len())
	}
}

func TestCompactMalformedTailStops(t *testing.T) {
	c := CompactFromAddrs(texturedAddrs(100))
	// Truncate mid-varint: the cursor must stop rather than spin, and
	// validate must reject the stream.
	c.data = c.data[:len(c.data)-1]
	cur := c.Cursor()
	total := 0
	for b := cur.Next(); b != nil; b = cur.Next() {
		total += len(b)
	}
	if total >= 100 {
		t.Fatalf("truncated stream still yielded %d addresses", total)
	}
	if err := c.validate(); err == nil {
		t.Fatal("validate accepted a truncated stream")
	}
	c.data = append(c.data, 0, 0, 0)
	if err := c.validate(); err == nil {
		t.Fatal("validate accepted trailing bytes")
	}
}

func TestCompactMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()

	addrs := texturedAddrs(50000)
	c := CompactFromAddrs(addrs)
	tr := reg.Sub("trace")
	if got := tr.Counter("raw_bytes").Value(); got != 8*uint64(len(addrs)) {
		t.Errorf("trace.raw_bytes = %d, want %d", got, 8*len(addrs))
	}
	if got := tr.Counter("compact_bytes").Value(); got != uint64(c.SizeBytes()) {
		t.Errorf("trace.compact_bytes = %d, want %d", got, c.SizeBytes())
	}
	if tr.Timer("encode").Count() != 1 {
		t.Errorf("trace.encode count = %d, want 1", tr.Timer("encode").Count())
	}
	c.Decode()
	if tr.Timer("decode").Count() == 0 {
		t.Error("trace.decode never observed")
	}
}
