package texcache_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"texcache"
)

// sweep8 is the eight-configuration sweep the acceptance criteria name:
// concurrent single-pass replay must match serial replay on it exactly.
func sweep8() []texcache.CacheConfig {
	return []texcache.CacheConfig{
		{SizeBytes: 1 << 10, LineBytes: 32, Ways: 1},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2},
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4},
		{SizeBytes: 16 << 10, LineBytes: 128, Ways: 0}, // fully associative
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2},
		{SizeBytes: 64 << 10, LineBytes: 128, Ways: 4},
		{SizeBytes: 128 << 10, LineBytes: 256, Ways: 8},
	}
}

// concurrentStats replays s through one classifying cache per
// configuration in a single concurrent pass: per-configuration replay
// spelled with the public surface, the reference the grouped sweep and
// the compact-trace paths are compared with.
func concurrentStats(ctx context.Context, s texcache.AddrStream, cfgs []texcache.CacheConfig) ([]texcache.CacheStats, error) {
	caches := make([]*texcache.Cache, len(cfgs))
	sinks := make([]texcache.Sink, len(cfgs))
	for i, cfg := range cfgs {
		c, err := texcache.NewClassifyingCache(cfg)
		if err != nil {
			return nil, err
		}
		caches[i], sinks[i] = c, c.Sink()
	}
	if err := texcache.ReplayStreamConcurrent(ctx, s, sinks...); err != nil {
		return nil, err
	}
	out := make([]texcache.CacheStats, len(caches))
	for i, c := range caches {
		out[i] = c.Stats()
	}
	return out, nil
}

// TestConcurrentSweepMatchesSerial verifies the single-pass multi-config
// replay is bit-identical to serial replay on real rendered traces: two
// scenes, eight configurations each.
func TestConcurrentSweepMatchesSerial(t *testing.T) {
	for _, name := range []string{"goblet", "town"} {
		s, err := texcache.SceneByNameChecked(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := s.Trace(texcache.LayoutSpec{Kind: texcache.Blocked, BlockW: 8},
			s.DefaultTraversal())
		if err != nil {
			t.Fatal(err)
		}
		want := tr.SimulateConfigs(sweep8())
		got, err := concurrentStats(context.Background(), tr, sweep8())
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range sweep8() {
			if got[i] != want[i] {
				t.Errorf("%s %+v: concurrent %+v != serial %+v", name, cfg, got[i], want[i])
			}
		}
	}
}

// runOutput executes a single-experiment request and returns its text
// output, failing the test on any error — the serial reference the
// batch comparison below measures against.
func runOutput(t *testing.T, id string, scale int, scenes []string) string {
	t.Helper()
	results, err := texcache.Run(context.Background(), texcache.ExperimentRequest{
		Experiments: []string{id}, Scale: scale, Scenes: scenes,
	})
	if err != nil {
		t.Fatalf("serial %s: %v", id, err)
	}
	var out string
	for r := range results {
		if r.Err != nil {
			t.Fatalf("serial %s: %v", id, r.Err)
		}
		out = r.Output
	}
	return out
}

// TestRunBatchMatchesSerial checks the engine's streamed output is
// byte-identical to one-experiment-at-a-time runs for every experiment
// in the batch.
func TestRunBatchMatchesSerial(t *testing.T) {
	ids := []string{"fig5.2", "fig5.7", "sectored"}
	scenes := []string{"goblet"}

	want := map[string]string{}
	for _, id := range ids {
		want[id] = runOutput(t, id, 8, scenes)
	}

	results, err := texcache.Run(context.Background(), texcache.ExperimentRequest{
		Experiments: ids, Scale: 8, Scenes: scenes,
	}, texcache.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for r := range results {
		n++
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
			continue
		}
		if r.ID != ids[r.Index] {
			t.Errorf("result %s has index %d", r.ID, r.Index)
		}
		if r.Output != want[r.ID] {
			t.Errorf("%s: engine output differs from serial", r.ID)
		}
	}
	if n != len(ids) {
		t.Errorf("got %d results, want %d", n, len(ids))
	}
}

func TestRunUnknownID(t *testing.T) {
	_, err := texcache.Run(context.Background(), texcache.ExperimentRequest{
		Experiments: []string{"nope"}, Scale: 8,
	})
	var ue *texcache.UnknownExperimentError
	if !errors.As(err, &ue) || ue.ID != "nope" {
		t.Fatalf("err = %v, want *UnknownExperimentError{nope}", err)
	}
}

// TestRunCancellation verifies a cancelled context stops the batch
// promptly, reporting the context error per experiment.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := texcache.Run(ctx, texcache.ExperimentRequest{
		Experiments: []string{"fig5.2", "fig5.7"}, Scale: 8, Scenes: []string{"goblet"},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range results {
			if r.Err == nil {
				t.Errorf("%s completed under a cancelled context", r.ID)
			} else if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", r.ID, r.Err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch did not drain promptly")
	}
}

// TestCheckedConstructors covers the error-returning constructor family:
// every invalid configuration comes back as a *ConfigError.
func TestCheckedConstructors(t *testing.T) {
	bad := []texcache.CacheConfig{
		{SizeBytes: 0, LineBytes: 32, Ways: 1},        // zero size
		{SizeBytes: 1 << 10, LineBytes: 48, Ways: 1},  // non-power-of-two line
		{SizeBytes: 1 << 10, LineBytes: 32, Ways: 64}, // ways > lines
	}
	for _, cfg := range bad {
		var ce *texcache.ConfigError
		if _, err := texcache.NewCache(cfg); !errors.As(err, &ce) {
			t.Errorf("NewCache(%+v) = %v, want *ConfigError", cfg, err)
		}
		if _, err := texcache.NewClassifyingCache(cfg); !errors.As(err, &ce) {
			t.Errorf("NewClassifyingCache(%+v) = %v, want *ConfigError", cfg, err)
		}
		if _, err := texcache.NewSectoredCache(cfg, 32); !errors.As(err, &ce) {
			t.Errorf("NewSectoredCache(%+v) = %v, want *ConfigError", cfg, err)
		}
	}

	good := texcache.CacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}
	c, err := texcache.NewCache(good)
	if err != nil || c == nil {
		t.Fatalf("NewCache(valid) = %v, %v", c, err)
	}
	cc, err := texcache.NewClassifyingCache(good)
	if err != nil || cc == nil {
		t.Fatalf("NewClassifyingCache(valid) = %v, %v", cc, err)
	}
	cc.Access(0)
	if s := cc.Stats(); s.Cold != 1 {
		t.Errorf("checked classifying cache does not classify: %+v", s)
	}
}

// TestUnknownSceneError covers the typed error from the checked scene
// lookup.
func TestUnknownSceneError(t *testing.T) {
	var ue *texcache.UnknownSceneError
	if _, err := texcache.SceneByNameChecked("nope", 1); !errors.As(err, &ue) || ue.Name != "nope" {
		t.Fatalf("SceneByNameChecked(nope) err = %v, want *UnknownSceneError{nope}", err)
	}
	if s, err := texcache.SceneByNameChecked("goblet", 8); err != nil || s == nil {
		t.Fatalf("SceneByNameChecked(goblet) = %v, %v", s, err)
	}
}
