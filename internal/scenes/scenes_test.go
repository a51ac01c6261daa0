package scenes

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/texture"
)

// Scenes are built at scale 8 in tests (screens of ~160x128) to keep
// runtime low; the structural characteristics are scale-invariant.
const testScale = 8

func TestBuildersCoverNames(t *testing.T) {
	b := Builders()
	for _, name := range Names() {
		if b[name] == nil {
			t.Errorf("missing builder for %q", name)
		}
	}
	if len(b) != len(Names()) {
		t.Errorf("builders/names mismatch: %d vs %d", len(b), len(Names()))
	}
	if _, err := ByNameChecked("nope", 1); err == nil {
		t.Error("unknown scene should error")
	}
}

// TestTable41Characteristics pins the scale-invariant Table 4.1 columns:
// triangle counts and texture counts per scene.
func TestTable41Characteristics(t *testing.T) {
	want := map[string]struct {
		tris, texs int
	}{
		"flight": {9180, 15}, // paper: 9152, 15
		"town":   {5298, 51}, // paper: 5317, 51
		"guitar": {720, 8},   // paper: 719, 8
		"goblet": {7200, 1},  // paper: 7200, 1
	}
	for name, w := range want {
		s := byName(t, name, testScale)
		if got := s.Triangles(); got != w.tris {
			t.Errorf("%s: %d triangles, want %d", name, got, w.tris)
		}
		if got := len(s.Mips); got != w.texs {
			t.Errorf("%s: %d textures, want %d", name, got, w.texs)
		}
	}
}

func TestResolutionsMatchPaper(t *testing.T) {
	for _, c := range []struct {
		name string
		w, h int
	}{
		{"flight", 1280, 1024}, {"town", 1280, 1024},
		{"guitar", 800, 800}, {"goblet", 800, 800},
	} {
		s := byName(t, c.name, 1)
		if s.Width != c.w || s.Height != c.h {
			t.Errorf("%s at scale 1: %dx%d, want %dx%d", c.name, s.Width, s.Height, c.w, c.h)
		}
		s8 := byName(t, c.name, testScale)
		if s8.Width != c.w/testScale {
			t.Errorf("%s at scale %d: width %d", c.name, testScale, s8.Width)
		}
	}
}

func TestTownIsVerticalOthersHorizontal(t *testing.T) {
	for _, name := range Names() {
		s := byName(t, name, testScale)
		want := raster.RowMajor
		if name == "town" {
			want = raster.ColumnMajor
		}
		if got := DefaultTraversal(name); got.Order != want || got.Tiled() {
			t.Errorf("%s default traversal = %+v, want untiled %v", name, got, want)
		}
		if got := s.DefaultTraversal(); got != DefaultTraversal(name) {
			t.Errorf("%s scene traversal %+v differs from the static default", name, got)
		}
	}
}

func TestScenesRenderFragments(t *testing.T) {
	for _, name := range Names() {
		s := byName(t, name, testScale)
		r, err := s.Render(RenderOptions{
			Layout:    texture.LayoutSpec{Kind: texture.NonBlockedKind},
			Traversal: s.DefaultTraversal(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Stats.FragmentsTextured == 0 {
			t.Errorf("%s rendered no textured fragments", name)
		}
		// Every scene covers a substantial part of its screen.
		cov := float64(r.FB.CoveredPixels()) / float64(s.Width*s.Height)
		if cov < 0.15 {
			t.Errorf("%s covers only %.0f%% of the screen", name, 100*cov)
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	s1 := byName(t, "goblet", testScale)
	s2 := byName(t, "goblet", testScale)
	spec := texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}
	t1, _, err := s1.Trace(spec, s1.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := s2.Trace(spec, s2.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1.Addrs, t2.Addrs) {
		t.Error("scene tracing is not deterministic")
	}
	if t1.Len() == 0 {
		t.Error("empty trace")
	}
}

// TestTraversalPermutesTrace pins at scene level that a traversal
// changes only the order of a trace: for every scene, nonblocked and
// blocked 8x8, the row-major, column-major, 8x8-tiled, 16x4-tiled and
// Hilbert traces hold the same multiset of addresses.
func TestTraversalPermutesTrace(t *testing.T) {
	travs := map[string]raster.Traversal{
		"vertical":   {Order: raster.ColumnMajor},
		"tiled 8x8":  {Order: raster.RowMajor, TileW: 8, TileH: 8},
		"tiled 16x4": {Order: raster.RowMajor, TileW: 16, TileH: 4},
		"hilbert":    {Order: raster.HilbertOrder},
	}
	sorted := func(t *testing.T, s *Scene, spec texture.LayoutSpec, trav raster.Traversal) []uint64 {
		t.Helper()
		tr, _, err := s.Trace(spec, trav)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(tr.Addrs)
		return tr.Addrs
	}
	for _, name := range Names() {
		s, err := Shared(context.Background(), name, testScale)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []texture.LayoutSpec{
			{Kind: texture.NonBlockedKind},
			{Kind: texture.BlockedKind, BlockW: 8},
		} {
			want := sorted(t, s, spec, raster.Traversal{Order: raster.RowMajor})
			if len(want) == 0 {
				t.Fatalf("%s %s: empty row-major trace", name, spec.Kind)
			}
			for tname, trav := range travs {
				if got := sorted(t, s, spec, trav); !slices.Equal(got, want) {
					t.Errorf("%s %s: the %s trace is not a permutation of the row-major one (%d vs %d addresses)",
						name, spec.Kind, tname, len(got), len(want))
				}
			}
		}
	}
}

func TestRenderRejectsBadLayout(t *testing.T) {
	s := byName(t, "goblet", testScale)
	_, err := s.Render(RenderOptions{
		Layout: texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 3},
	})
	if err == nil {
		t.Error("invalid layout spec accepted")
	}
}

func TestTexturesLaidOutConsecutively(t *testing.T) {
	// The arena places textures in ID order with no overlap, mirroring
	// consecutive malloc() placement.
	s := byName(t, "town", testScale)
	r, err := s.Render(RenderOptions{
		Layout:    texture.LayoutSpec{Kind: texture.NonBlockedKind},
		Traversal: s.DefaultTraversal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd uint64
	for i, tex := range r.Textures {
		if tex.Layout.Base() < prevEnd {
			t.Fatalf("texture %d overlaps previous (base %d < %d)", i, tex.Layout.Base(), prevEnd)
		}
		prevEnd = tex.Layout.Base() + tex.Layout.SizeBytes()
	}
}

func TestTextureRepetitionByScene(t *testing.T) {
	// The scenes are synthesized to the paper's repetition factors:
	// town ~2.9, guitar ~1.7, goblet ~1.1, flight ~1.0. Verified through
	// the UV ranges of the generated geometry.
	maxUV := func(name string) float64 {
		s := byName(t, name, testScale)
		m := 0.0
		for _, d := range s.Draws {
			for _, tr := range d.Mesh.Tris {
				for _, v := range tr.V {
					if v.UV.X > m {
						m = v.UV.X
					}
					if v.UV.Y > m {
						m = v.UV.Y
					}
				}
			}
		}
		return m
	}
	if got := maxUV("flight"); got > 1.001 {
		t.Errorf("flight UVs exceed 1: %v", got)
	}
	if got := maxUV("goblet"); got < 1.05 || got > 1.2 {
		t.Errorf("goblet max UV = %v, want ~1.1", got)
	}
	if got := maxUV("guitar"); got < 1.5 || got > 1.8 {
		t.Errorf("guitar max UV = %v, want ~1.6", got)
	}
	if got := maxUV("town"); got < 1.5 {
		t.Errorf("town max UV = %v, want >= 1.7-ish", got)
	}
}

func TestStorageScalesWithTextureSizes(t *testing.T) {
	full := byName(t, "goblet", 1).TextureStorageBytes()
	small := byName(t, "goblet", testScale).TextureStorageBytes()
	if full <= small {
		t.Errorf("storage did not scale: full=%d small=%d", full, small)
	}
	// Goblet at full scale: a 512x512 Mip Map is ~1.33 * 1MB.
	if full < 1<<20 || full > 2<<20 {
		t.Errorf("goblet full storage = %.2f MB, want ~1.4", float64(full)/(1<<20))
	}
}

func TestSinkReceivesTrace(t *testing.T) {
	s := byName(t, "guitar", testScale)
	var n int
	_, err := s.Render(RenderOptions{
		Layout:    texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 4},
		Traversal: s.DefaultTraversal(),
		Sink:      cache.SinkFunc(func(uint64) { n++ }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("sink received no accesses")
	}
}

func TestCameraPathMovesEveryScene(t *testing.T) {
	for _, name := range Names() {
		s := byName(t, name, testScale)
		if s.CameraPath == nil {
			t.Errorf("%s has no camera path", name)
			continue
		}
		c0 := s.CameraAt(0)
		c1 := s.CameraAt(0.5)
		if c0.View == c1.View {
			t.Errorf("%s camera did not move", name)
		}
		// t=0 must match the canonical frame.
		if c0.View != s.Camera.View || c0.Proj != s.Camera.Proj {
			t.Errorf("%s CameraAt(0) differs from the static camera", name)
		}
	}
}

func TestRenderAtTimeProducesDifferentTrace(t *testing.T) {
	s := byName(t, "goblet", testScale)
	spec := texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}
	tr0 := cache.NewTrace(0)
	if _, err := s.Render(RenderOptions{Layout: spec, Traversal: s.DefaultTraversal(), Sink: tr0}); err != nil {
		t.Fatal(err)
	}
	tr1 := cache.NewTrace(0)
	if _, err := s.Render(RenderOptions{Layout: spec, Traversal: s.DefaultTraversal(), Sink: tr1, Time: 0.5}); err != nil {
		t.Fatal(err)
	}
	if tr1.Len() == 0 {
		t.Fatal("animated frame rendered nothing")
	}
	if reflect.DeepEqual(tr0.Addrs, tr1.Addrs) {
		t.Error("animated frame produced an identical trace")
	}
}

func TestLayoutsMatchRenderPlacement(t *testing.T) {
	s := byName(t, "town", testScale)
	spec := texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}
	layouts, err := s.Layouts(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Render(RenderOptions{Layout: spec, Traversal: s.DefaultTraversal()})
	if err != nil {
		t.Fatal(err)
	}
	if len(layouts) != len(r.Textures) {
		t.Fatalf("layout count %d != texture count %d", len(layouts), len(r.Textures))
	}
	for i := range layouts {
		if layouts[i].Base() != r.Textures[i].Layout.Base() {
			t.Errorf("texture %d: Layouts base %d != render base %d",
				i, layouts[i].Base(), r.Textures[i].Layout.Base())
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := newRand(42), newRand(42)
	for i := 0; i < 100; i++ {
		if a.float() != b.float() {
			t.Fatal("rand not deterministic")
		}
	}
	v := newRand(42).float()
	if v < 0 || v >= 1 {
		t.Errorf("rand out of range: %v", v)
	}
}

// byName builds the named scene, failing the test for unknown names.
func byName(t *testing.T, name string, scale int) *Scene {
	t.Helper()
	s, err := ByNameChecked(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
