package exp

import (
	"context"
	"errors"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/obs"
	"texcache/internal/report"
	"texcache/internal/scenes"
)

// testCfg runs experiments at scale 8 so the whole suite stays fast; the
// experiment code paths are identical at every scale.
var testCfg = Config{Scale: 8}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"banks", "compress", "dram", "fig5.2", "fig5.4", "fig5.5",
		"fig5.6", "fig5.7", "fig5.7nb", "fig6.2", "fig6.4", "hilbert", "igehy",
		"interframe", "latency", "locality", "parallel", "prefetch",
		"replacement", "runlength", "sectored", "table2.1", "table4.1",
		"table7.1", "williams", "worstcase",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, e := range All() {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig5.2"); !ok {
		t.Error("fig5.2 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus ID found")
	}
}

// runOne executes an experiment and returns its output.
func runOne(t *testing.T, id string, cfg Config) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var sb strings.Builder
	if err := e.Run(context.Background(), cfg, report.NewText(&sb)); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return sb.String()
}

func TestTable41Output(t *testing.T) {
	out := runOne(t, "table4.1", testCfg)
	for _, scene := range []string{"flight", "town", "guitar", "goblet"} {
		if !strings.Contains(out, scene) {
			t.Errorf("table4.1 missing %s:\n%s", scene, out)
		}
	}
	if !strings.Contains(out, "160x128") {
		t.Errorf("table4.1 missing scaled resolution:\n%s", out)
	}
}

func TestTable21Output(t *testing.T) {
	out := runOne(t, "table2.1", testCfg)
	for _, want := range []string{"Per Triangle Setup", "Trilinear Interpolation", "triangles=7200"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2.1 missing %q:\n%s", want, out)
		}
	}
}

func TestLocalityOutput(t *testing.T) {
	out := runOne(t, "locality", Config{Scale: 8, Scenes: []string{"goblet"}})
	if !strings.Contains(out, "goblet") || !strings.Contains(out, "repetition") {
		t.Errorf("locality output malformed:\n%s", out)
	}
}

func TestRunlengthOutput(t *testing.T) {
	out := runOne(t, "runlength", Config{Scale: 8, Scenes: []string{"guitar"}})
	if !strings.Contains(out, "guitar") {
		t.Errorf("runlength output malformed:\n%s", out)
	}
}

func TestFig52Output(t *testing.T) {
	out := runOne(t, "fig5.2", Config{Scale: 8, Scenes: []string{"town"}})
	if !strings.Contains(out, "horizontal") || !strings.Contains(out, "vertical") {
		t.Errorf("fig5.2 missing directions:\n%s", out)
	}
	if !strings.Contains(out, "town") || !strings.Contains(out, "%") {
		t.Errorf("fig5.2 missing series:\n%s", out)
	}
}

func TestFig54Output(t *testing.T) {
	out := runOne(t, "fig5.4", Config{Scale: 8, Scenes: []string{"guitar"}})
	if !strings.Contains(out, "guitar") || !strings.Contains(out, "8x8") {
		t.Errorf("fig5.4 malformed:\n%s", out)
	}
	if strings.Contains(out, "town") {
		t.Error("scene filter ignored")
	}
}

func TestFig55Fig56Output(t *testing.T) {
	out := runOne(t, "fig5.5", Config{Scale: 8, Scenes: []string{"goblet"}})
	if !strings.Contains(out, "goblet") {
		t.Errorf("fig5.5 malformed:\n%s", out)
	}
	out = runOne(t, "fig5.6", Config{Scale: 8, Scenes: []string{"goblet"}})
	if !strings.Contains(out, "goblet") || !strings.Contains(out, "256B/8x8") {
		t.Errorf("fig5.6 malformed:\n%s", out)
	}
}

func TestFig57Output(t *testing.T) {
	out := runOne(t, "fig5.7", Config{Scale: 8, Scenes: []string{"goblet"}})
	for _, want := range []string{"direct", "2-way", "fully-assoc"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5.7 missing %q:\n%s", want, out)
		}
	}
	out = runOne(t, "fig5.7nb", testCfg)
	if !strings.Contains(out, "NONBLOCKED") {
		t.Errorf("fig5.7nb malformed:\n%s", out)
	}
}

func TestFig62Output(t *testing.T) {
	out := runOne(t, "fig6.2", Config{Scale: 8, Scenes: []string{"guitar"}})
	for _, want := range []string{"untiled", "8x8 px", "256x256 px"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig6.2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig64Output(t *testing.T) {
	out := runOne(t, "fig6.4", Config{Scale: 8, Scenes: []string{"town"}})
	for _, want := range []string{"untiled blocked", "padded(4)", "6D", "FA floor"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig6.4 missing %q:\n%s", want, out)
		}
	}
}

func TestTable71Output(t *testing.T) {
	out := runOne(t, "table7.1", Config{Scale: 8, Scenes: []string{"goblet"}})
	for _, want := range []string{"4KB/2way/32B", "128KB/DM/128B", "goblet", "uncached"} {
		if !strings.Contains(out, want) {
			t.Errorf("table7.1 missing %q:\n%s", want, out)
		}
	}
}

func TestBanksOutput(t *testing.T) {
	out := runOne(t, "banks", Config{Scale: 8, Scenes: []string{"goblet"}})
	if !strings.Contains(out, "morton") || !strings.Contains(out, "speedup") {
		t.Errorf("banks malformed:\n%s", out)
	}
}

func TestWilliamsOutput(t *testing.T) {
	out := runOne(t, "williams", Config{Scale: 8, Scenes: []string{"goblet"}})
	if !strings.Contains(out, "williams") || !strings.Contains(out, "nonblocked") {
		t.Errorf("williams malformed:\n%s", out)
	}
}

func TestExtensionOutputs(t *testing.T) {
	out := runOne(t, "hilbert", Config{Scale: 8, Scenes: []string{"goblet"}})
	for _, want := range []string{"scanline", "tiled 8x8", "hilbert"} {
		if !strings.Contains(out, want) {
			t.Errorf("hilbert missing %q:\n%s", want, out)
		}
	}
	out = runOne(t, "compress", Config{Scale: 8, Scenes: []string{"goblet"}})
	if !strings.Contains(out, "compressed") || !strings.Contains(out, "blocked") {
		t.Errorf("compress malformed:\n%s", out)
	}
	out = runOne(t, "parallel", Config{Scale: 8, Scenes: []string{"goblet"}})
	for _, want := range []string{"scanline-interleave", "strips", "tile-interleave"} {
		if !strings.Contains(out, want) {
			t.Errorf("parallel missing %q:\n%s", want, out)
		}
	}
	out = runOne(t, "latency", Config{Scale: 8, Scenes: []string{"goblet"}})
	if !strings.Contains(out, "stalled") || !strings.Contains(out, "hidden") {
		t.Errorf("latency malformed:\n%s", out)
	}
}

func TestMemoryExperimentOutputs(t *testing.T) {
	out := runOne(t, "dram", Config{Scale: 8, Scenes: []string{"goblet"}})
	for _, want := range []string{"page-hit", "bus-util", "256B"} {
		if !strings.Contains(out, want) {
			t.Errorf("dram missing %q:\n%s", want, out)
		}
	}
	out = runOne(t, "prefetch", Config{Scale: 8, Scenes: []string{"goblet"}})
	if !strings.Contains(out, "fifo=512") || !strings.Contains(out, "goblet") {
		t.Errorf("prefetch malformed:\n%s", out)
	}
	out = runOne(t, "interframe", Config{Scale: 8, Scenes: []string{"goblet"}})
	if !strings.Contains(out, "footprint") || !strings.Contains(out, "->") {
		t.Errorf("interframe malformed:\n%s", out)
	}
	out = runOne(t, "igehy", Config{Scale: 8, Scenes: []string{"goblet"}})
	for _, want := range []string{"blocking", "fifo=64", "lat=400", "zero-latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("igehy missing %q:\n%s", want, out)
		}
	}
}

func TestAblationOutputs(t *testing.T) {
	out := runOne(t, "replacement", Config{Scale: 8, Scenes: []string{"goblet"}})
	for _, want := range []string{"LRU", "FIFO", "random"} {
		if !strings.Contains(out, want) {
			t.Errorf("replacement missing %q:\n%s", want, out)
		}
	}
	out = runOne(t, "sectored", Config{Scale: 8, Scenes: []string{"goblet"}})
	for _, want := range []string{"full 128B fills", "32B sectors", "MB moved"} {
		if !strings.Contains(out, want) {
			t.Errorf("sectored missing %q:\n%s", want, out)
		}
	}
}

func TestWorstCaseOutput(t *testing.T) {
	out := runOne(t, "worstcase", Config{Scale: 16})
	for _, want := range []string{"0 deg", "90 deg", "nonblocked representation", "blocked representation"} {
		if !strings.Contains(out, want) {
			t.Errorf("worstcase missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownSceneErrors(t *testing.T) {
	e, _ := Lookup("table4.1")
	var sb strings.Builder
	if err := e.Run(context.Background(), Config{Scale: 8, Scenes: []string{"bogus"}}, report.NewText(&sb)); err == nil {
		t.Error("unknown scene accepted")
	}
}

// TestArchTimelineShared pins that igehy, latency and prefetch share one
// architecture timeline per scene: run together they build at most one
// per scene, and run again they build none. They run at once, so under
// -race this also checks the shared memo.
func TestArchTimelineShared(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()
	built := reg.Sub("arch").Counter("timelines")
	runAll := func() {
		var wg sync.WaitGroup
		for _, id := range []string{"igehy", "latency", "prefetch"} {
			e, _ := Lookup(id)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := e.Run(context.Background(), Config{Scale: 32}, report.NewText(io.Discard)); err != nil {
					t.Errorf("%s: %v", id, err)
				}
			}()
		}
		wg.Wait()
	}
	runAll()
	first := built.Value()
	if n := uint64(len(scenes.Names())); first > n {
		t.Errorf("built %d timelines over %d scenes, want at most one per scene", first, n)
	}
	runAll()
	if again := built.Value() - first; again != 0 {
		t.Errorf("a repeat built %d timelines, want none", again)
	}
}

// TestTraversalOnlyExperimentsRejectUnknownScenes checks that the
// experiments reading a scene's traversal without building it still
// report an unknown name as *scenes.UnknownSceneError.
func TestTraversalOnlyExperimentsRejectUnknownScenes(t *testing.T) {
	for _, id := range []string{"fig5.5", "fig5.6", "fig6.2", "hilbert", "compress", "williams"} {
		e, _ := Lookup(id)
		err := e.Run(context.Background(), Config{Scale: 16, Scenes: []string{"bogus"}}, report.NewText(io.Discard))
		var se *scenes.UnknownSceneError
		if !errors.As(err, &se) || se.Name != "bogus" {
			t.Errorf("%s: err = %v, want *scenes.UnknownSceneError for bogus", id, err)
		}
	}
}

func TestCurveSizes(t *testing.T) {
	sizes := curveSizes()
	if sizes[0] != 1<<10 || sizes[len(sizes)-1] != 256<<10 {
		t.Errorf("curve sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != 2*sizes[i-1] {
			t.Errorf("curve sizes not doubling: %v", sizes)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.scale() != 1 {
		t.Errorf("zero config scale = %d", c.scale())
	}
	if got := c.sceneList("a", "b"); len(got) != 2 {
		t.Errorf("default scene list = %v", got)
	}
	c.Scenes = []string{"x"}
	if got := c.sceneList("a"); len(got) != 1 || got[0] != "x" {
		t.Errorf("override scene list = %v", got)
	}
	if DefaultConfig().Scale != 2 {
		t.Error("DefaultConfig changed")
	}
}

// TestNeedsKeysRunnable checks every declared Needs key is renderable:
// the scenes exist and the declared traversal direction matches what the
// experiment would render privately, so an engine prewarming from Needs
// populates exactly the traces Run will ask for.
func TestNeedsKeysRunnable(t *testing.T) {
	cfg := Config{Scale: 16}
	for _, e := range All() {
		if e.Needs == nil {
			continue
		}
		for _, k := range e.Needs(cfg) {
			if _, err := scenes.ByNameChecked(k.Scene, cfg.scale()); err != nil {
				t.Errorf("%s: Needs names unknown scene %q", e.ID, k.Scene)
			}
		}
	}
}

// recordingProvider renders every requested trace privately and records
// its key, so a test can compare what an experiment asks for with what
// it declares in Needs.
type recordingProvider struct {
	mu   sync.Mutex
	keys []TraceKey
}

func (p *recordingProvider) SceneTrace(ctx context.Context, k TraceKey, scale int) (cache.AddrStream, error) {
	p.mu.Lock()
	p.keys = append(p.keys, k)
	p.mu.Unlock()
	return traceScene(ctx, Config{Scale: scale}, k.Scene, k.Layout, k.Traversal)
}

// TestDRAMReadsDeclaredTraces: dram takes every trace it replays from
// the provider, exactly the keys its Needs declares, and its output is
// the same with and without a provider.
func TestDRAMReadsDeclaredTraces(t *testing.T) {
	cfg := Config{Scale: 8, Scenes: []string{"goblet", "town"}}
	want := runOne(t, "dram", cfg)
	p := &recordingProvider{}
	cfg.Traces = p
	if got := runOne(t, "dram", cfg); got != want {
		t.Errorf("dram through a provider:\n%s\nrendering privately:\n%s", got, want)
	}
	e, _ := Lookup("dram")
	if needs := e.Needs(cfg); !slices.Equal(p.keys, needs) {
		t.Errorf("dram asked for %v, Needs declares %v", p.keys, needs)
	}
}

// TestRunHonorsCancelledContext verifies experiments return promptly with
// the context's error when cancelled before any work happens.
func TestRunHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"fig5.2", "fig5.7", "replacement", "worstcase", "dram"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		var sb strings.Builder
		if err := e.Run(ctx, Config{Scale: 16, Scenes: []string{"goblet"}}, report.NewText(&sb)); err == nil {
			t.Errorf("%s ran to completion under a cancelled context", id)
		}
	}
}
