package texture

import (
	"math"

	"texcache/internal/cache"
)

// Texture binds a Mip Map pyramid to its memory representation. ID is a
// small dense index used by the statistics collectors. Coordinates wrap
// by repeating the texture (GL_REPEAT), the mode of all the paper's
// scenes.
type Texture struct {
	ID     int
	Mip    *MipMap
	Layout Layout
}

// NewTexture builds the pyramid for base and lays it out in arena memory
// according to spec.
func NewTexture(id int, base *Image, spec LayoutSpec, arena *Arena) (*Texture, error) {
	mip := BuildMipMap(base)
	layout, err := NewLayout(spec, mip.Dims(), arena)
	if err != nil {
		return nil, err
	}
	return &Texture{ID: id, Mip: mip, Layout: layout}, nil
}

// Color is a filtered texture sample with components in [0, 1].
type Color struct {
	R, G, B, A float64
}

// Scale returns the color scaled component-wise by s.
func (c Color) Scale(s float64) Color {
	return Color{c.R * s, c.G * s, c.B * s, c.A * s}
}

// Add returns the component-wise sum of c and d.
func (c Color) Add(d Color) Color {
	return Color{c.R + d.R, c.G + d.G, c.B + d.B, c.A + d.A}
}

// Modulate returns the component-wise product of c and d, the paper's
// final "modulation with fragment color" step.
func (c Color) Modulate(d Color) Color {
	return Color{c.R * d.R, c.G * d.G, c.B * d.B, c.A * d.A}
}

// AccessKind classifies a texel fetch for the Section 3.1.2 locality
// statistics, which distinguish the lower (more detailed) and upper (less
// detailed) levels of a trilinear interpolation from bilinear accesses.
type AccessKind uint8

const (
	// AccessBilinear is a fetch for a magnified (bilinear) fragment.
	AccessBilinear AccessKind = iota
	// AccessTrilinearLower is a fetch from the more detailed of the two
	// trilinear levels.
	AccessTrilinearLower
	// AccessTrilinearUpper is a fetch from the less detailed level.
	AccessTrilinearUpper
)

// AccessEvent describes one texel fetch for statistics collection.
// (TU, TV) are the wrapped in-image coordinates; (RawU, RawV) are the
// pre-wrap coordinates, whose difference reveals texture repetition
// (Section 3.1.2's repeated-texture temporal locality). Addr is the
// texel's first memory address under the active layout.
//
// Events arrive in filter-footprint groups: each bilinear level fetch
// emits exactly four events in (x0,y0) (x1,y0) (x0,y1) (x1,y1) order, a
// property the bank-conflict analyzer relies on.
type AccessEvent struct {
	TexID      int
	Level      int
	TU, TV     int
	RawU, RawV int
	Addr       uint64
	Kind       AccessKind
}

// Sampler performs OpenGL 1.0 style Mip Mapped texture filtering while
// reporting every texel address to Sink (the cache simulator) and,
// optionally, every logical texel touch to OnAccess (the statistics
// collectors). A nil Sink suppresses address reporting.
type Sampler struct {
	Sink     cache.Sink
	OnAccess func(AccessEvent)

	// Fetches counts logical texel reads (one per fetch call, before
	// address expansion), the pipeline's texel-fetch statistic.
	Fetches uint64

	addrBuf []uint64 // scratch, reused across fetches
}

// Sample filters tex at normalized coordinates (u, v) with level-of-detail
// lambda = log2(texels per pixel). Negative lambda means the texture is
// magnified and a 4-texel bilinear fetch from the base level suffices;
// otherwise the standard 8-texel trilinear fetch spans the two adjacent
// pyramid levels.
func (s *Sampler) Sample(tex *Texture, u, v, lambda float64) Color {
	if lambda <= 0 {
		return s.Bilinear(tex, u, v)
	}
	return s.Trilinear(tex, u, v, lambda)
}

// Bilinear performs a 4-texel weighted average on the base level.
func (s *Sampler) Bilinear(tex *Texture, u, v float64) Color {
	return s.sampleLevel(tex, 0, u, v, AccessBilinear)
}

// Trilinear performs the 8-texel weighted average across the two levels
// whose detail straddles lambda. Lambda at or beyond the coarsest level
// clamps there (both quads then read the same level, as real hardware
// does, preserving the 8-access count the paper assumes).
func (s *Sampler) Trilinear(tex *Texture, u, v, lambda float64) Color {
	maxL := tex.Mip.MaxLevel()
	l0 := int(lambda)
	if l0 > maxL {
		l0 = maxL
	}
	l1 := min(l0+1, maxL)
	frac := lambda - float64(l0)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	c0 := s.sampleLevel(tex, l0, u, v, AccessTrilinearLower)
	c1 := s.sampleLevel(tex, l1, u, v, AccessTrilinearUpper)
	return c0.Scale(1 - frac).Add(c1.Scale(frac))
}

// sampleLevel performs one 2x2 bilinear fetch on the given level,
// reporting all four texel accesses.
func (s *Sampler) sampleLevel(tex *Texture, level int, u, v float64, kind AccessKind) Color {
	im := tex.Mip.Levels[level]
	x := u*float64(im.W) - 0.5
	y := v*float64(im.H) - 0.5
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)

	t00 := s.fetch(tex, level, x0, y0, kind)
	t10 := s.fetch(tex, level, x0+1, y0, kind)
	t01 := s.fetch(tex, level, x0, y0+1, kind)
	t11 := s.fetch(tex, level, x0+1, y0+1, kind)

	top := t00.Scale(1 - fx).Add(t10.Scale(fx))
	bot := t01.Scale(1 - fx).Add(t11.Scale(fx))
	return top.Scale(1 - fy).Add(bot.Scale(fy))
}

// Nearest performs a single-texel point-sampled fetch from the level
// nearest to lambda (GL_NEAREST_MIPMAP_NEAREST). The paper's machine
// always filters, but point sampling is the baseline mode of cheaper
// contemporaneous hardware.
func (s *Sampler) Nearest(tex *Texture, u, v, lambda float64) Color {
	level := 0
	if lambda > 0.5 {
		level = int(lambda + 0.5)
		if m := tex.Mip.MaxLevel(); level > m {
			level = m
		}
	}
	im := tex.Mip.Levels[level]
	return s.fetch(tex, level, int(math.Floor(u*float64(im.W))), int(math.Floor(v*float64(im.H))),
		AccessBilinear)
}

// fetch reads one texel after repeat-wrapping its coordinates (level
// dimensions are powers of two), emitting its memory address(es) and
// access event.
func (s *Sampler) fetch(tex *Texture, level, tx, ty int, kind AccessKind) Color {
	s.Fetches++
	im := tex.Mip.Levels[level]
	tu := tx & (im.W - 1)
	tv := ty & (im.H - 1)

	if s.Sink != nil || s.OnAccess != nil {
		s.addrBuf = tex.Layout.Addresses(level, tu, tv, s.addrBuf[:0])
		if s.Sink != nil {
			for _, a := range s.addrBuf {
				s.Sink.Access(a)
			}
		}
		if s.OnAccess != nil {
			s.OnAccess(AccessEvent{
				TexID: tex.ID, Level: level,
				TU: tu, TV: tv,
				RawU: tx, RawV: ty,
				Addr: s.addrBuf[0],
				Kind: kind,
			})
		}
	}

	t := im.At(tu, tv)
	const inv = 1.0 / 255.0
	return Color{float64(t.R) * inv, float64(t.G) * inv, float64(t.B) * inv, float64(t.A) * inv}
}
