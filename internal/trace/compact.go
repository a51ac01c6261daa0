// Package trace provides a compact in-memory encoding for texel address
// traces and a persistent content-addressed on-disk store for them.
//
// A rendered frame's address stream is strongly local — texture accesses
// walk nearby texels, so consecutive addresses differ by small signed
// deltas. The Compact encoding exploits that: addresses are zigzag
// delta-encoded as varints in sync blocks of blockLen addresses, where
// each block opens with its first address in absolute form. Against the
// 8 bytes/address of a materialized []uint64 this typically shrinks the
// footprint several-fold, and replay streams block by block straight out
// of the encoded bytes (Compact implements cache.AddrStream), so a sweep
// never materializes the full slice.
package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"texcache/internal/cache"
	"texcache/internal/obs"
)

// blockLen is the sync-block size in addresses. Each block restarts the
// delta chain with an absolute address, so decoding needs no state older
// than one block and a corrupt tail cannot poison more than blockLen
// decoded addresses before the checksum rejects the file anyway. It
// matches the replay chunk length, so each Cursor.Next decodes exactly
// one block into one buffer.
const blockLen = 1 << 14

// Compact is a delta-encoded texel address trace. The zero value is an
// empty trace; build one with CompactFromTrace or Decode one back into a
// materialized *cache.Trace.
type Compact struct {
	data  []byte // encoded sync blocks, back to back
	count int    // number of encoded addresses
}

// CompactFromTrace encodes a materialized trace. The input is not
// retained.
func CompactFromTrace(t *cache.Trace) *Compact {
	return CompactFromAddrs(t.Addrs)
}

// CompactFromAddrs encodes an address slice. The input is not retained.
func CompactFromAddrs(addrs []uint64) *Compact {
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	// A first pass sums the varint lengths, so the buffer is allocated
	// once at its final size: the Compact retains exactly SizeBytes().
	size := 0
	var prev uint64
	for i, a := range addrs {
		size += uvarintLen(varintCode(i, a, prev))
		prev = a
	}
	buf := make([]byte, 0, size)
	prev = 0
	for i, a := range addrs {
		buf = binary.AppendUvarint(buf, varintCode(i, a, prev))
		prev = a
	}
	c := &Compact{data: buf, count: len(addrs)}
	if reg != nil {
		tr := reg.Sub("trace")
		tr.Timer("encode").ObserveSince(start)
		tr.Counter("raw_bytes").Add(8 * uint64(len(addrs)))
		tr.Counter("compact_bytes").Add(uint64(len(buf)))
	}
	return c
}

// Len returns the number of encoded addresses.
func (c *Compact) Len() int { return c.count }

// SizeBytes returns the encoded footprint in bytes.
func (c *Compact) SizeBytes() int { return len(c.data) }

// Ratio returns the compression ratio versus a materialized []uint64
// (8 bytes/address); zero for an empty trace.
func (c *Compact) Ratio() float64 {
	if len(c.data) == 0 {
		return 0
	}
	return float64(8*c.count) / float64(len(c.data))
}

// Cursor returns an iterator that decodes one sync block per Next call
// into a reused buffer; Compact implements cache.AddrStream, so the
// stream replay entry points consume it directly.
func (c *Compact) Cursor() cache.Cursor {
	return &cursor{data: c.data, remaining: c.count}
}

// cursor decodes a Compact stream block by block. Each cursor owns its
// buffer, so concurrent replays take independent cursors and never share
// decoded state.
type cursor struct {
	data      []byte
	remaining int
	buf       []uint64
}

func (cu *cursor) Next() []uint64 {
	if cu.remaining <= 0 {
		return nil
	}
	n := min(cu.remaining, blockLen)
	if cu.buf == nil {
		cu.buf = make([]uint64, blockLen)
	}
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	// The encoder wrote these bytes, so decoding cannot fail; a store
	// file's checksum is verified before a Compact is ever constructed
	// from disk. Varint truncation would surface as k <= 0.
	var prev uint64
	for i := 0; i < n; i++ {
		u, k := binary.Uvarint(cu.data)
		if k <= 0 {
			// Unreachable for encoder-produced bytes; stop cleanly rather
			// than loop on a malformed tail.
			cu.remaining = 0
			return cu.buf[:i:i]
		}
		cu.data = cu.data[k:]
		if i == 0 {
			prev = u // sync point: absolute
		} else {
			prev = uint64(int64(prev) + unzigzag(u))
		}
		cu.buf[i] = prev
	}
	cu.remaining -= n
	if reg != nil {
		reg.Sub("trace").Timer("decode").ObserveSince(start)
	}
	return cu.buf[:n:n]
}

// Decode materializes the full address slice as a *cache.Trace.
func (c *Compact) Decode() *cache.Trace {
	t := cache.NewTrace(c.count)
	cur := c.Cursor()
	for b := cur.Next(); b != nil; b = cur.Next() {
		t.AccessBulk(b)
	}
	return t
}

// compactFromBytes wraps encoded bytes, counting their addresses: each
// address is exactly one varint. It rejects a stream that ends mid-varint
// or holds a varint that overflows 64 bits, so a cursor over the result
// yields exactly Len() addresses.
func compactFromBytes(data []byte) (*Compact, error) {
	count := 0
	for rest := data; len(rest) > 0; count++ {
		_, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, fmt.Errorf("trace: encoded stream malformed at address %d", count)
		}
		rest = rest[k:]
	}
	return &Compact{data: data, count: count}, nil
}

// varintCode is the value address i is encoded as: the absolute address
// at a sync point, which starts a fresh delta chain, and the zigzag delta
// from the previous address elsewhere.
func varintCode(i int, a, prev uint64) uint64 {
	if i%blockLen == 0 {
		return a
	}
	return zigzag(int64(a) - int64(prev))
}

// uvarintLen is the length of u's unsigned varint encoding.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
