// Tile-parallel rendering: the frame is decomposed into screen-space
// tiles, triangles are binned to the tiles their bounding boxes overlap,
// tiles are rasterized concurrently (each worker owns its tiles' pixels,
// so the Z-buffer and color writes need no locks), and the per-tile
// texel-access streams are merged back into the exact serial emission
// order. The merged cache.Trace is bit-identical to the serial
// renderer's for every traversal order: within a triangle, fragments
// carry their serial-traversal rank (internal/raster), and across
// triangles the input order is preserved, so a per-triangle k-way merge
// by rank reconstructs the serial sequence.
package pipeline

import (
	"sync"
	"time"

	"texcache/internal/cache"
	"texcache/internal/obs"
	"texcache/internal/raster"
	"texcache/internal/texture"
)

// DefaultTilePx is the default edge, in pixels, of the screen tiles the
// parallel renderer uses. 64 keeps the per-tile working set small while
// leaving enough tiles to load a pool at the paper's resolutions.
const DefaultTilePx = 64

// screenTri is one screen-space triangle captured during the geometry
// pass of a deferred frame, ready for rasterization.
type screenTri struct {
	v0, v1, v2 raster.Vert
	tex        *texture.Texture
}

// fragRec locates one textured fragment's addresses within its tile
// stream: rank is the fragment's serial-traversal rank within its
// triangle, n the number of addresses it emitted.
type fragRec struct {
	rank uint64
	n    uint32
}

// tileRange is the inclusive rectangle of grid tiles a triangle's
// clamped bounding box overlaps; tx1 < tx0 marks a triangle outside the
// screen. It is both the binning footprint and the merge's wait set.
type tileRange struct {
	tx0, ty0, tx1, ty1 int32
}

// triSpan is one triangle's contiguous slice of a tile stream, in frame
// triangle order.
type triSpan struct {
	seq            int // triangle sequence number within the frame
	fragLo, fragHi int
	addrLo, addrHi int
}

// tileStream accumulates one tile's rasterization output. It doubles as
// the tile sampler's cache.Sink so address emission stays a slice
// append.
type tileStream struct {
	rect raster.Rect
	tris []int32 // bound triangle sequence numbers, ascending

	addrs []uint64
	frags []fragRec
	spans []triSpan

	shaded, textured uint64
	fetches          uint64

	// done is closed by the rendering worker when the tile's stream is
	// complete; the overlapped merge waits on it per tile instead of on
	// a whole-frame barrier, so early tiles drain while later tiles
	// still rasterize.
	done chan struct{}
}

// Access implements cache.Sink.
func (ts *tileStream) Access(addr uint64) { ts.addrs = append(ts.addrs, addr) }

// tilePools recycles tile streams between frames, bucketed by tile
// pixel capacity (full tiles and the narrower edge tiles carry very
// different address volumes, so mixing them would bleed large buffers
// into small tiles and vice versa). Each bucket is a sync.Pool of
// *tileStream whose slices keep their grown capacity across frames —
// the per-frame allocation churn of the parallel render path was its
// biggest regression against the serial scan.
var tilePools sync.Map // tile pixel capacity (int) → *sync.Pool

// getTileStream returns a recycled (or fresh) stream for the rect,
// bound to the given triangle list. addrHint is the expected address
// volume of the tile (eight addresses per pixel): a fresh or undersized
// stream pre-grows to it, so first frames reach steady-state capacity
// without walking the doubling ladder per tile.
func getTileStream(rect raster.Rect, tris []int32, addrHint int) *tileStream {
	capPx := (rect.X1 - rect.X0 + 1) * (rect.Y1 - rect.Y0 + 1)
	p, _ := tilePools.LoadOrStore(capPx, &sync.Pool{})
	ts, _ := p.(*sync.Pool).Get().(*tileStream)
	if ts == nil {
		ts = &tileStream{}
	}
	if addrHint > cap(ts.addrs) {
		ts.addrs = make([]uint64, 0, addrHint)
	}
	if capPx > cap(ts.frags) {
		ts.frags = make([]fragRec, 0, capPx)
	}
	ts.rect = rect
	ts.tris = tris
	ts.done = make(chan struct{})
	return ts
}

// putTileStream truncates the stream's buffers (keeping their capacity)
// and returns it to its capacity bucket. The caller must not touch the
// stream afterwards; in particular the address slices handed to the
// merge are dead once this runs.
func putTileStream(ts *tileStream) {
	capPx := (ts.rect.X1 - ts.rect.X0 + 1) * (ts.rect.Y1 - ts.rect.Y0 + 1)
	ts.tris = nil
	ts.done = nil
	ts.addrs = ts.addrs[:0]
	ts.frags = ts.frags[:0]
	ts.spans = ts.spans[:0]
	ts.shaded, ts.textured, ts.fetches = 0, 0, 0
	if p, ok := tilePools.Load(capPx); ok {
		p.(*sync.Pool).Put(ts)
	}
}

// parallelEligible reports whether the configured frame may take the
// tile-parallel path. OnAccess and Counters observe the stream while it
// is produced, in order, so frames using them keep the serial path; the
// trace Sink is ordered too, but its stream is reconstructed exactly by
// the merge.
func (r *Renderer) parallelEligible() bool {
	return r.RenderWorkers > 1 && r.OnAccess == nil && r.Counters == nil
}

// deferredPool recycles the captured-triangle slice across frames and
// renderers. Scene drivers build a fresh Renderer per frame, so without
// recycling every parallel frame re-walks the append doubling ladder
// over tens of thousands of screen triangles — the largest remaining
// per-frame allocation once the tile streams themselves were pooled.
var deferredPool sync.Pool

// deferTri captures a screen triangle for the tile pass, returning false
// when the frame is not running in deferred mode.
func (r *Renderer) deferTri(st *screenTri) bool {
	if !r.parallelEligible() {
		return false
	}
	if r.deferred == nil {
		if s, ok := deferredPool.Get().(*[]screenTri); ok {
			r.deferred = (*s)[:0]
		}
	}
	r.deferred = append(r.deferred, *st)
	return true
}

// Finish completes the frame. For a deferred (tile-parallel) frame it
// bins the captured triangles, rasterizes the tiles across
// RenderWorkers goroutines and merges the texel-access streams back
// into serial order; for a serial frame it is a no-op, so callers may
// invoke it unconditionally after the frame's draws.
//
// The merge is pipelined: it runs on the calling goroutine concurrently
// with the tile workers, consuming each tile's spans as soon as that
// tile's stream completes instead of waiting for a whole-frame barrier.
// Triangles are merged in frame order, and the merge of triangle seq
// only waits on the tiles seq was binned to, so the long tail of a
// skewed frame (one huge tile, many small ones) overlaps with draining
// everything that is already done.
func (r *Renderer) Finish() {
	tris := r.deferred
	if len(tris) == 0 {
		return
	}
	r.deferred = nil
	// The capture slice is dead once the frame completes; recycle it for
	// the next frame's deferTri (this renderer's or any other's).
	defer func() {
		tris = tris[:0]
		deferredPool.Put(&tris)
	}()

	tile := r.tilePx
	if tile <= 0 {
		tile = DefaultTilePx
	}
	grid := raster.NewGrid(r.Width, r.Height, tile)

	// Bin triangles to the tiles their clamped bounding boxes overlap.
	// Binning is two counting passes into one flat slab instead of
	// per-tile append growth: a frame makes a handful of allocations
	// regardless of triangle count, and the stored per-triangle tile
	// ranges double as the merge's triangle -> tiles map.
	nTiles := grid.NumTiles()
	ranges := make([]tileRange, len(tris))
	cnt := make([]int32, nTiles+1)
	total := 0
	for seq := range tris {
		st := &tris[seq]
		bbox, ok := raster.Bounds(st.v0, st.v1, st.v2, r.Width, r.Height)
		if !ok {
			ranges[seq] = tileRange{tx0: 0, ty0: 0, tx1: -1, ty1: -1}
			continue
		}
		tx0, ty0, tx1, ty1 := grid.TileRange(bbox)
		ranges[seq] = tileRange{tx0: int32(tx0), ty0: int32(ty0), tx1: int32(tx1), ty1: int32(ty1)}
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				cnt[ty*grid.NX+tx]++
			}
		}
		total += (tx1 - tx0 + 1) * (ty1 - ty0 + 1)
	}
	// binOff[i]..binOff[i+1] brackets tile i's triangle list in binFlat;
	// cnt is reused as the per-tile fill cursor.
	binOff := make([]int32, nTiles+1)
	for i := 0; i < nTiles; i++ {
		binOff[i+1] = binOff[i] + cnt[i]
		cnt[i] = binOff[i]
	}
	binFlat := make([]int32, total)
	for seq := range tris {
		rg := ranges[seq]
		for ty := rg.ty0; ty <= rg.ty1; ty++ {
			for tx := rg.tx0; tx <= rg.tx1; tx++ {
				i := int(ty)*grid.NX + int(tx)
				binFlat[cnt[i]] = int32(seq)
				cnt[i]++
			}
		}
	}
	// Per-tile address pre-sizing: the trilinear footprint, eight texels
	// per textured fragment, over the tile's pixels.
	const perPx = 8
	// streamOf maps a tile index to its stream (-1 for empty tiles), for
	// the merge's range walk.
	streamOf := make([]int32, nTiles)
	var streams []*tileStream
	for i := 0; i < nTiles; i++ {
		if binOff[i+1] == binOff[i] {
			streamOf[i] = -1
			continue
		}
		rect := grid.Rect(i)
		hint := (rect.X1 - rect.X0 + 1) * (rect.Y1 - rect.Y0 + 1) * perPx
		streamOf[i] = int32(len(streams))
		streams = append(streams, getTileStream(rect, binFlat[binOff[i]:binOff[i+1]], hint))
	}
	if len(streams) == 0 {
		return
	}

	// Rasterize the tiles on the worker pool. Tiles partition the
	// screen, so each worker writes disjoint framebuffer indices —
	// no locks on the hot path. The work channel is pre-loaded so the
	// caller is free to merge while the workers run.
	start := time.Now()
	workers := r.RenderWorkers
	if workers > len(streams) {
		workers = len(streams)
	}
	work := make(chan *tileStream, len(streams))
	for _, ts := range streams {
		work <- ts
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := range work {
				r.renderTile(ts, tris)
				close(ts.done)
			}
		}()
	}

	// Overlapped merge: drain completed tiles' spans while later tiles
	// still render. Each tile's stream is written only by its rendering
	// worker before done closes, so the merge reads it race-free.
	if r.Sink != nil {
		r.mergeStreams(tris, streams, ranges, streamOf, grid.NX)
	}
	wg.Wait()

	// Fold the tile counters into the frame statistics; every counter is
	// a plain sum over the partition, so the totals match a serial frame.
	for _, ts := range streams {
		r.Stats.FragmentsShaded += ts.shaded
		r.Stats.FragmentsTextured += ts.textured
		r.sampler.Fetches += ts.fetches
	}
	// Tile metrics flush once per frame, never per tile element. The
	// tile_pass timer covers rasterization plus the overlapped merge.
	rend := obs.Default().Sub("render")
	rend.Counter("tiles").Add(uint64(len(streams)))
	rend.Timer("tile_pass").ObserveSince(start)

	for _, ts := range streams {
		putTileStream(ts)
	}
}

// renderTile rasterizes every triangle bound to the tile, in frame
// order, clipped to the tile rect. Depth resolution is exact: the tile
// owns its pixels, and triangles arrive in the same relative order as
// the serial frame, so every depth test sees the same prior state.
func (r *Renderer) renderTile(ts *tileStream, tris []screenTri) {
	var smp texture.Sampler
	if r.Sink != nil {
		smp.Sink = ts
	}
	for _, seq := range ts.tris {
		span := triSpan{seq: int(seq), fragLo: len(ts.frags), addrLo: len(ts.addrs)}
		r.drawFragments(&tris[seq], ts.rect, &smp, &ts.shaded, &ts.textured, ts)
		span.fragHi, span.addrHi = len(ts.frags), len(ts.addrs)
		if span.addrHi > span.addrLo {
			ts.spans = append(ts.spans, span)
		}
	}
	ts.fetches = smp.Fetches
}

// mergeStreams replays the per-tile address streams into the frame Sink
// in the exact serial emission order: triangles in frame order, and
// within a triangle a k-way merge of the participating tiles' fragment
// runs by rank. Each tile's stream is already rank-sorted (a clipped
// scan visits pixels in serial order), so the merge is linear.
//
// The merge runs concurrently with the tile workers: before touching a
// triangle's spans it waits (receives on a closed channel are nearly
// free after the first) for the tiles the triangle was binned to — its
// stored tileRange — so spans of completed tiles flow into the sink
// while unrelated tiles are still rasterizing. The range walk also
// keeps the per-triangle scan away from tiles that cannot hold it,
// making the merge O(bin entries) instead of O(triangles x tiles).
func (r *Renderer) mergeStreams(tris []screenTri, streams []*tileStream,
	ranges []tileRange, streamOf []int32, nx int) {
	bulk, _ := r.Sink.(cache.BulkSink)
	emitRun := func(addrs []uint64) {
		if bulk != nil {
			// Bulk append (Trace grows by doubling) instead of a
			// per-address interface call.
			bulk.AccessBulk(addrs)
			return
		}
		for _, a := range addrs {
			r.Sink.Access(a)
		}
	}

	// merge_backlog tracks how many tile streams the merge has not yet
	// fully consumed; it drains to zero as their spans are emitted.
	backlog := obs.Default().Sub("render").Gauge("merge_backlog")
	backlog.Set(int64(len(streams)))
	defer backlog.Set(0)

	// cur[i] walks stream i's span list; spans are in ascending seq.
	cur := make([]int, len(streams))
	drained := make([]bool, len(streams))
	type head struct {
		ts   *tileStream
		span triSpan
		frag int // next fragment record
		addr int // next address
	}
	var heads []head
	for seq := range tris {
		heads = heads[:0]
		rg := ranges[seq]
		for ty := rg.ty0; ty <= rg.ty1; ty++ {
			for tx := rg.tx0; tx <= rg.tx1; tx++ {
				si := streamOf[int(ty)*nx+int(tx)]
				ts := streams[si]
				<-ts.done
				if cur[si] < len(ts.spans) && ts.spans[cur[si]].seq == seq {
					heads = append(heads, head{ts: ts, span: ts.spans[cur[si]]})
					cur[si]++
				}
				if !drained[si] && cur[si] >= len(ts.spans) {
					// Stream fully consumed (or empty): counted once.
					drained[si] = true
					backlog.Add(-1)
				}
			}
		}
		switch len(heads) {
		case 0:
			continue
		case 1:
			// Single-tile triangle: its stream already is the serial
			// order — bulk append.
			sp := heads[0].span
			emitRun(heads[0].ts.addrs[sp.addrLo:sp.addrHi])
			continue
		}
		for i := range heads {
			heads[i].frag = heads[i].span.fragLo
			heads[i].addr = heads[i].span.addrLo
		}
		for len(heads) > 0 {
			// Smallest rank across the heads is the next serial
			// fragment; ranks are distinct across tiles because tiles
			// partition the pixels.
			best := 0
			for i := 1; i < len(heads); i++ {
				if heads[i].ts.frags[heads[i].frag].rank < heads[best].ts.frags[heads[best].frag].rank {
					best = i
				}
			}
			h := &heads[best]
			n := int(h.ts.frags[h.frag].n)
			emitRun(h.ts.addrs[h.addr : h.addr+n])
			h.frag++
			h.addr += n
			if h.frag == h.span.fragHi {
				heads[best] = heads[len(heads)-1]
				heads = heads[:len(heads)-1]
			}
		}
	}
}
