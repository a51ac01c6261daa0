package texcache_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"texcache"
)

// mustScene builds a benchmark scene through the checked lookup, failing
// the test on unknown names.
func mustScene(tb testing.TB, name string, scale int) *texcache.Scene {
	tb.Helper()
	s, err := texcache.SceneByNameChecked(name, scale)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestPublicAPIRenderAndSimulate drives the full public surface: build a
// texture, render geometry, trace the accesses, replay through caches.
func TestPublicAPIRenderAndSimulate(t *testing.T) {
	arena := texcache.NewArena()
	tex, err := texcache.NewTexture(0, texcache.Checker(64, 64, 8,
		texcache.Texel{R: 255, A: 255}, texcache.Texel{G: 255, A: 255}),
		texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 4}, arena)
	if err != nil {
		t.Fatal(err)
	}

	r := texcache.NewRenderer(64, 64)
	r.Textures = []*texcache.TextureObject{tex}
	trace := texcache.NewTrace(0)
	r.Sink = trace

	mesh := &texcache.Mesh{}
	white := texcache.Vec3{X: 1, Y: 1, Z: 1}
	v := func(x, y, u, vv float64) texcache.Vertex {
		return texcache.Vertex{Pos: texcache.Vec3{X: x, Y: y},
			Normal: texcache.Vec3{Z: 1}, UV: texcache.Vec2{X: u, Y: vv}, Color: white}
	}
	mesh.AddQuad(v(-1, -1, 0, 1), v(1, -1, 1, 1), v(1, 1, 1, 0), v(-1, 1, 0, 0), 0)

	cam := texcache.LookAtCamera(texcache.Vec3{Z: 2}, texcache.Vec3{}, texcache.Vec3{Y: 1},
		math.Pi/2, 1, 0.1, 10)
	r.DrawMesh(mesh, texcache.Identity(), cam)

	if r.Stats.FragmentsTextured == 0 || trace.Len() == 0 {
		t.Fatal("nothing rendered through the public API")
	}

	c, err := texcache.NewClassifyingCache(texcache.CacheConfig{
		SizeBytes: 4 << 10, LineBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	texcache.ReplayStream(trace, c.Sink())
	s := c.Stats()
	if s.Accesses != uint64(trace.Len()) {
		t.Errorf("cache saw %d accesses, trace has %d", s.Accesses, trace.Len())
	}
	if s.Cold+s.Capacity+s.Conflict != s.Misses {
		t.Errorf("3C partition broken: %+v", s)
	}

	sd := texcache.NewStackDist(64)
	texcache.ReplayStream(trace, sd)
	if sd.Accesses() != uint64(trace.Len()) {
		t.Error("stack distance profiler missed accesses")
	}
}

func TestSceneFacade(t *testing.T) {
	names := texcache.SceneNames()
	if len(names) != 4 {
		t.Fatalf("scene names = %v", names)
	}
	s := mustScene(t, "goblet", 8)
	tr, r, err := s.Trace(texcache.LayoutSpec{Kind: texcache.NonBlocked}, s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 || r.Stats.FragmentsTextured == 0 {
		t.Error("scene trace empty")
	}
	if _, err := texcache.SceneByNameChecked("nope", 1); err == nil {
		t.Error("unknown scene should error")
	}
}

func TestRunFacade(t *testing.T) {
	ids := texcache.ExperimentIDs()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	results, err := texcache.Run(context.Background(), texcache.ExperimentRequest{
		Experiments: []string{"table4.1"}, Scale: 8, Scenes: []string{"goblet"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		out.WriteString(r.Output)
	}
	if !strings.Contains(out.String(), "goblet") {
		t.Errorf("experiment output malformed: %s", out.String())
	}
	_, err = texcache.Run(context.Background(), texcache.ExperimentRequest{
		Experiments: []string{"bogus"},
	})
	var unknown *texcache.UnknownExperimentError
	if err == nil {
		t.Error("bogus experiment accepted")
	} else if !errors.As(err, &unknown) || unknown.ID != "bogus" {
		t.Errorf("error %v does not unwrap to *UnknownExperimentError{bogus}", err)
	}
}

func TestPerfModelFacade(t *testing.T) {
	m := texcache.DefaultPerfModel()
	if m.PeakFragmentsPerSecond() != 50e6 {
		t.Error("default model changed")
	}
}

func TestMemoryModelFacades(t *testing.T) {
	d, err := texcache.NewDRAMSim(texcache.DefaultDRAM(), 128)
	if err != nil {
		t.Fatal(err)
	}
	d.Fill(0)
	d.Fill(128)
	if d.Stats().Fills != 2 || d.Stats().PageHits != 1 {
		t.Errorf("dram facade stats = %+v", d.Stats())
	}

	s := mustScene(t, "goblet", 8)
	tr, _, err := s.Trace(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
		s.DefaultTraversal())
	if err != nil {
		t.Fatal(err)
	}
	ac := texcache.DefaultArch(texcache.CacheConfig{
		SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}, texcache.ArchPrefetch)
	res, err := texcache.SimulateArch(ac, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != uint64(tr.Len()) || res.Utilization() <= 0 {
		t.Errorf("arch facade result = %+v", res)
	}

	// One replay, several timing points: the timeline must agree with the
	// direct simulation at the same configuration.
	tl, err := texcache.NewArchTimeline(ac.Cache, tr)
	if err != nil {
		t.Fatal(err)
	}
	again, err := tl.Simulate(ac)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Errorf("timeline result %+v != direct %+v", again, res)
	}
}

func TestParallelFacade(t *testing.T) {
	s := mustScene(t, "goblet", 8)
	res, err := texcache.RunParallel(s, texcache.TileInterleave, 2, 8,
		texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
		texcache.CacheConfig{SizeBytes: 4 << 10, LineBytes: 128, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2 || res.TotalFragments() == 0 {
		t.Errorf("parallel facade result = %+v", res)
	}
}

func TestGLFacade(t *testing.T) {
	r := texcache.NewRenderer(16, 16)
	cam := texcache.LookAtCamera(texcache.Vec3{Z: 2}, texcache.Vec3{}, texcache.Vec3{Y: 1},
		math.Pi/2, 1, 0.1, 10)
	var buf strings.Builder
	rec := texcache.NewGLRecorder(&buf)
	api := texcache.GLTee(texcache.NewGLContext(r, cam), rec)
	texcache.EmitMesh(api, quadMesh())
	if err := api.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Stats.TrianglesIn != 2 {
		t.Errorf("GL rendered %d triangles", r.Stats.TrianglesIn)
	}
	// Replay the recorded trace into a fresh renderer.
	r2 := texcache.NewRenderer(16, 16)
	if err := texcache.GLReplay(strings.NewReader(buf.String()),
		texcache.NewGLContext(r2, cam)); err != nil {
		t.Fatal(err)
	}
	if r2.Stats.TrianglesIn != 2 {
		t.Errorf("replay rendered %d triangles", r2.Stats.TrianglesIn)
	}
}

func quadMesh() *texcache.Mesh {
	m := &texcache.Mesh{}
	white := texcache.Vec3{X: 1, Y: 1, Z: 1}
	v := func(x, y, u, vv float64) texcache.Vertex {
		return texcache.Vertex{Pos: texcache.Vec3{X: x, Y: y},
			Normal: texcache.Vec3{Z: 1}, UV: texcache.Vec2{X: u, Y: vv}, Color: white}
	}
	m.AddQuad(v(-1, -1, 0, 1), v(1, -1, 1, 1), v(1, 1, 1, 0), v(-1, 1, 0, 0), -1)
	return m
}

func TestSectoredFacade(t *testing.T) {
	sc, err := texcache.NewSectoredCache(texcache.CacheConfig{
		SizeBytes: 4 << 10, LineBytes: 128, Ways: 2}, 32)
	if err != nil {
		t.Fatal(err)
	}
	sc.Access(0)
	sc.Access(32)
	if sc.Stats().Misses != 2 {
		t.Errorf("sectored facade stats = %+v", sc.Stats())
	}
	c, err := texcache.NewCache(texcache.CacheConfig{
		SizeBytes: 1 << 10, LineBytes: 32, Ways: 2, Policy: texcache.ReplaceFIFO})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0)
	if !c.Access(0) {
		t.Error("FIFO policy facade broken")
	}
}

func TestBankAnalyzerFacade(t *testing.T) {
	a := texcache.NewBankAnalyzer()
	for _, d := range [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		a.Record(texcache.AccessEvent{TU: d[0], TV: d[1]})
	}
	if a.Quads() != 1 {
		t.Errorf("quads = %d", a.Quads())
	}
}
