package trace

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"texcache/internal/cache"
	"texcache/internal/obs"
	"texcache/internal/raster"
	"texcache/internal/scenes"
	"texcache/internal/texture"
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
		// The counting decode recovers the address count from the bytes.
		if back, err := compactFromBytes(c.data); err != nil || back.Len() != n {
			t.Fatalf("n=%d: counting decode gave %v, %v", n, back, err)
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

// TestCompactSizedToItsBytes encodes a real scale-4 trace and checks that
// the Compact retains no capacity beyond its encoded bytes (a slack of
// zero bytes: the encoder sizes its buffer exactly), so a budget that
// counts SizeBytes() counts what the Compact holds; and that the encoding
// still round-trips through Cursor and through WriteFile and ReadFile.
func TestCompactSizedToItsBytes(t *testing.T) {
	const slack = 0
	s, err := scenes.ByNameChecked("goblet", 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := s.Trace(texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}, s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	c := CompactFromTrace(tr)
	if extra := cap(c.data) - c.SizeBytes(); extra > slack {
		t.Fatalf("%d-address trace: Compact retains %d bytes for %d encoded (slack %d)",
			c.Len(), cap(c.data), c.SizeBytes(), slack)
	}

	var got []uint64
	cur := c.Cursor()
	for b := cur.Next(); b != nil; b = cur.Next() {
		got = append(got, b...)
	}
	if !slices.Equal(got, tr.Addrs) {
		t.Fatal("Cursor does not round-trip the trace")
	}

	path := filepath.Join(t.TempDir(), "goblet.trace")
	k := KeyFor("goblet", 4, texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}, raster.Traversal{Order: raster.RowMajor})
	if err := WriteFile(path, k, c); err != nil {
		t.Fatal(err)
	}
	key, back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if key != k.canonical() || back.SizeBytes() != c.SizeBytes() || !slices.Equal(back.Decode().Addrs, tr.Addrs) {
		t.Fatal("WriteFile/ReadFile does not round-trip the trace")
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
	// End mid-varint: the cursor must stop rather than spin, and the
	// counting decode must reject the stream.
	c.data = endMidVarint(c.data)
	cur := c.Cursor()
	total := 0
	for b := cur.Next(); b != nil; b = cur.Next() {
		total += len(b)
	}
	if total >= 100 {
		t.Fatalf("truncated stream still yielded %d addresses", total)
	}
	if _, err := compactFromBytes(c.data); err == nil {
		t.Fatal("counting decode accepted a stream ending mid-varint")
	}
	// A 10-byte varint whose last byte exceeds 1 overflows 64 bits.
	if _, err := compactFromBytes(append(bytes.Repeat([]byte{0xff}, 9), 0x02)); err == nil {
		t.Fatal("counting decode accepted an overflowing varint")
	}
}

// endMidVarint returns a copy of an encoded stream whose last byte is
// replaced by a continuation byte, so the stream ends mid-varint.
func endMidVarint(data []byte) []byte {
	return append(slices.Clone(data[:len(data)-1]), 0x80)
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Small deltas encode small.
	if zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(0) != 0 {
		t.Error("zigzag ordering unexpected")
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
