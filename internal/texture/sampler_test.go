package texture

import (
	"math"
	"testing"

	"texcache/internal/cache"
)

func testTexture(t *testing.T, w, h int, spec LayoutSpec) *Texture {
	t.Helper()
	tex, err := NewTexture(0, Gradient(w, h, Texel{0, 0, 0, 255}, Texel{255, 255, 255, 255}), spec, NewArena())
	if err != nil {
		t.Fatal(err)
	}
	return tex
}

func TestBilinearAccessCount(t *testing.T) {
	tex := testTexture(t, 16, 16, LayoutSpec{Kind: NonBlockedKind})
	n := 0
	s := &Sampler{Sink: cache.SinkFunc(func(uint64) { n++ })}
	s.Bilinear(tex, 0.3, 0.7)
	if n != 4 {
		t.Errorf("bilinear made %d accesses, want 4", n)
	}
}

func TestTrilinearAccessCount(t *testing.T) {
	tex := testTexture(t, 16, 16, LayoutSpec{Kind: NonBlockedKind})
	n := 0
	s := &Sampler{Sink: cache.SinkFunc(func(uint64) { n++ })}
	s.Trilinear(tex, 0.3, 0.7, 1.5)
	if n != 8 {
		t.Errorf("trilinear made %d accesses, want 8", n)
	}
}

func TestSampleDispatch(t *testing.T) {
	tex := testTexture(t, 16, 16, LayoutSpec{Kind: NonBlockedKind})
	var kinds []AccessKind
	s := &Sampler{OnAccess: func(e AccessEvent) { kinds = append(kinds, e.Kind) }}
	s.Sample(tex, 0.5, 0.5, -0.5) // magnified -> bilinear
	if len(kinds) != 4 {
		t.Fatalf("magnified sample made %d accesses", len(kinds))
	}
	for _, k := range kinds {
		if k != AccessBilinear {
			t.Errorf("magnified access kind = %v", k)
		}
	}
	kinds = kinds[:0]
	s.Sample(tex, 0.5, 0.5, 1.2) // minified -> trilinear
	lower, upper := 0, 0
	for _, k := range kinds {
		switch k {
		case AccessTrilinearLower:
			lower++
		case AccessTrilinearUpper:
			upper++
		}
	}
	if lower != 4 || upper != 4 {
		t.Errorf("trilinear split = %d lower / %d upper, want 4/4", lower, upper)
	}
}

func TestTrilinearLevelSelection(t *testing.T) {
	tex := testTexture(t, 16, 16, LayoutSpec{Kind: NonBlockedKind})
	var levels []int
	s := &Sampler{OnAccess: func(e AccessEvent) { levels = append(levels, e.Level) }}
	s.Trilinear(tex, 0.5, 0.5, 2.25)
	for i, l := range levels {
		want := 2
		if i >= 4 {
			want = 3
		}
		if l != want {
			t.Errorf("access %d at level %d, want %d", i, l, want)
		}
	}
}

func TestTrilinearClampsAtCoarsestLevel(t *testing.T) {
	tex := testTexture(t, 8, 8, LayoutSpec{Kind: NonBlockedKind}) // max level 3
	var levels []int
	s := &Sampler{OnAccess: func(e AccessEvent) { levels = append(levels, e.Level) }}
	s.Trilinear(tex, 0.5, 0.5, 10)
	if len(levels) != 8 {
		t.Fatalf("%d accesses", len(levels))
	}
	for _, l := range levels {
		if l != 3 {
			t.Errorf("level %d, want clamp to 3", l)
		}
	}
}

func TestBilinearInterpolatesExactly(t *testing.T) {
	// A 2x2 image with known corner values; sample at the exact center of
	// the four texel centers: all weights 0.25.
	base := NewImage(2, 2)
	base.Set(0, 0, Texel{0, 0, 0, 255})
	base.Set(1, 0, Texel{255, 0, 0, 255})
	base.Set(0, 1, Texel{0, 255, 0, 255})
	base.Set(1, 1, Texel{0, 0, 255, 255})
	tex := &Texture{Mip: &MipMap{Levels: []*Image{base}}}
	layout, err := NewLayout(LayoutSpec{Kind: NonBlockedKind}, tex.Mip.Dims(), NewArena())
	if err != nil {
		t.Fatal(err)
	}
	tex.Layout = layout
	s := &Sampler{}
	got := s.Bilinear(tex, 0.5, 0.5)
	want := 255.0 / 4 / 255
	if math.Abs(got.R-want) > 1e-12 || math.Abs(got.G-want) > 1e-12 || math.Abs(got.B-want) > 1e-12 {
		t.Errorf("center sample = %+v, want %v each", got, want)
	}
	if math.Abs(got.A-1) > 1e-12 {
		t.Errorf("alpha = %v, want 1", got.A)
	}
	// Sampling exactly at a texel center returns that texel.
	atCenter := s.Bilinear(tex, 0.25, 0.25) // texel (0,0) center
	if atCenter.R != 0 || atCenter.G != 0 || atCenter.B != 0 {
		t.Errorf("texel-center sample = %+v, want black", atCenter)
	}
}

func TestTrilinearBlendsLevels(t *testing.T) {
	// Level 0 all black, force level 1 all white, then check the blend
	// weight tracks frac(lambda).
	base := NewImage(4, 4)
	mip := BuildMipMap(base)
	mip.Levels[1].Fill(Texel{255, 255, 255, 255})
	layout, err := NewLayout(LayoutSpec{Kind: NonBlockedKind}, mip.Dims(), NewArena())
	if err != nil {
		t.Fatal(err)
	}
	tex := &Texture{Mip: mip, Layout: layout}
	s := &Sampler{}
	for _, frac := range []float64{0, 0.25, 0.5, 1} {
		lambda := 0.0 + frac
		var got Color
		if lambda == 0 {
			got = s.Trilinear(tex, 0.5, 0.5, 1e-9)
		} else {
			got = s.Trilinear(tex, 0.5, 0.5, lambda)
		}
		if math.Abs(got.R-frac) > 1e-6 {
			t.Errorf("lambda %v: R = %v, want %v", lambda, got.R, frac)
		}
	}
}

func TestSamplerWrapsRepeat(t *testing.T) {
	tex := testTexture(t, 8, 8, LayoutSpec{Kind: NonBlockedKind})
	s := &Sampler{}
	colorClose := func(a, b Color) bool {
		return math.Abs(a.R-b.R) < 1e-9 && math.Abs(a.G-b.G) < 1e-9 &&
			math.Abs(a.B-b.B) < 1e-9 && math.Abs(a.A-b.A) < 1e-9
	}
	a := s.Bilinear(tex, 0.3, 0.4)
	b := s.Bilinear(tex, 1.3, 2.4) // repeated coordinates
	if !colorClose(a, b) {
		t.Errorf("REPEAT wrap broken: %+v vs %+v", a, b)
	}
	c := s.Bilinear(tex, 0.3-1, 0.4-3)
	if !colorClose(a, c) {
		t.Errorf("negative wrap broken: %+v vs %+v", a, c)
	}
}

func TestSamplerAddressesMatchLayout(t *testing.T) {
	tex := testTexture(t, 8, 8, LayoutSpec{Kind: BlockedKind, BlockW: 4})
	var addrs []uint64
	var events []AccessEvent
	s := &Sampler{
		Sink:     cache.SinkFunc(func(a uint64) { addrs = append(addrs, a) }),
		OnAccess: func(e AccessEvent) { events = append(events, e) },
	}
	s.Trilinear(tex, 0.37, 0.81, 1.4)
	if len(addrs) != len(events) {
		t.Fatalf("%d addrs, %d events", len(addrs), len(events))
	}
	for i, e := range events {
		want := tex.Layout.Addresses(e.Level, e.TU, e.TV, nil)[0]
		if addrs[i] != want {
			t.Errorf("access %d: addr %d, layout says %d", i, addrs[i], want)
		}
	}
}

func TestNearestSingleAccess(t *testing.T) {
	tex := testTexture(t, 16, 16, LayoutSpec{Kind: NonBlockedKind})
	var events []AccessEvent
	s := &Sampler{OnAccess: func(e AccessEvent) { events = append(events, e) }}
	s.Nearest(tex, 0.3, 0.7, 0)
	if len(events) != 1 {
		t.Fatalf("nearest made %d accesses, want 1", len(events))
	}
	if events[0].Level != 0 {
		t.Errorf("magnified nearest used level %d", events[0].Level)
	}
	// Minified: picks the rounded level.
	events = events[:0]
	s.Nearest(tex, 0.3, 0.7, 2.4)
	if len(events) != 1 || events[0].Level != 2 {
		t.Errorf("nearest at lambda 2.4 -> %+v, want level 2", events)
	}
	// Lambda beyond the pyramid clamps.
	events = events[:0]
	s.Nearest(tex, 0.3, 0.7, 99)
	if events[0].Level != tex.Mip.MaxLevel() {
		t.Errorf("nearest clamped to level %d", events[0].Level)
	}
}

func TestColorOps(t *testing.T) {
	c := Color{0.5, 0.25, 1, 1}
	if got := c.Scale(2); got != (Color{1, 0.5, 2, 2}) {
		t.Errorf("Scale = %+v", got)
	}
	if got := c.Add(Color{0.1, 0.1, 0.1, 0.1}); math.Abs(got.R-0.6) > 1e-12 {
		t.Errorf("Add = %+v", got)
	}
	if got := c.Modulate(Color{0.5, 4, 0, 1}); got != (Color{0.25, 1, 0, 1}) {
		t.Errorf("Modulate = %+v", got)
	}
}

func TestNewTextureError(t *testing.T) {
	if _, err := NewTexture(0, NewImage(4, 4), LayoutSpec{Kind: BlockedKind, BlockW: 3}, NewArena()); err == nil {
		t.Error("expected layout error to propagate")
	}
}
