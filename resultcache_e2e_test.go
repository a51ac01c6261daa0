package texcache_test

// End-to-end acceptance for the content-addressed result cache: warm
// repeats of an experiment request must be byte-identical to the fresh
// stream (pinned against a committed fixture) and at least 10x faster
// than a trace-warm replay, because a result hit writes stored bytes
// instead of re-simulating.
//
// Regenerate the fixture with:
//
//	go test -run TestResultCacheStreamGolden -update .

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"texcache"
)

// resultBenchReq is the request the result-cache gate and benchmarks
// replay: the same render-dominated batch as the trace-store gate.
func resultBenchReq(scale int) texcache.ExperimentRequest {
	return texcache.ExperimentRequest{
		Experiments: storeBenchIDs, Scale: scale, Scenes: []string{"goblet"},
	}
}

// runNDJSON executes req through the streaming facade and returns the
// exact bytes a texsim -json run (and a texserve response body) carries.
func runNDJSON(tb testing.TB, req texcache.ExperimentRequest, opts ...texcache.ExperimentOption) []byte {
	tb.Helper()
	var buf bytes.Buffer
	err := texcache.RunNDJSON(context.Background(), req, &buf, func(r texcache.ExperimentResult) {
		if r.Err != nil {
			tb.Fatalf("%s: %v", r.ID, r.Err)
		}
	}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultCacheNDJSONIdentical pins byte-identity across every tier:
// the same request produces the same NDJSON bytes with no cache, from a
// cold cache, from a warm memory hit, and from a fresh process reading
// the persistent tier.
func TestResultCacheNDJSONIdentical(t *testing.T) {
	req := texcache.ExperimentRequest{
		Experiments: []string{"fig5.4"}, Scale: 8, Scenes: []string{"goblet"},
	}
	want := runNDJSON(t, req)

	dir := t.TempDir()
	rc := texcache.NewResultCache()
	if err := rc.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	if cold := runNDJSON(t, req, texcache.WithResultCache(rc)); !bytes.Equal(cold, want) {
		t.Error("cold result-cache stream differs from uncached stream")
	}
	if warm := runNDJSON(t, req, texcache.WithResultCache(rc)); !bytes.Equal(warm, want) {
		t.Error("warm result-cache stream differs from uncached stream")
	}
	if rc.Produced() != 1 || rc.Hits() != 1 {
		t.Errorf("Produced %d Hits %d, want 1/1", rc.Produced(), rc.Hits())
	}
	// A fresh cache on the same directory restores the stream from disk.
	fresh := texcache.NewResultCache()
	if err := fresh.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	if stored := runNDJSON(t, req, texcache.WithResultCache(fresh)); !bytes.Equal(stored, want) {
		t.Error("persisted result stream differs from uncached stream")
	}
	if fresh.StoreHits() != 1 || fresh.Produced() != 0 {
		t.Errorf("fresh cache StoreHits %d Produced %d, want 1/0", fresh.StoreHits(), fresh.Produced())
	}

	// Execution-only knobs do not fork the key: a request differing only
	// in workers and tenant is served the same cached bytes.
	alias := req
	alias.Workers = 3
	alias.Tenant = "someone-else"
	if got := runNDJSON(t, alias, texcache.WithResultCache(rc)); !bytes.Equal(got, want) {
		t.Error("worker/tenant change forked the cached stream")
	}
	if rc.Produced() != 1 {
		t.Errorf("alias request re-simulated: Produced = %d", rc.Produced())
	}
}

// TestResultCacheStreamGolden pins the exact cached NDJSON bytes
// against a committed fixture, so neither the serializer nor the cache
// tiers can drift silently. ResultFormatVersion must be bumped whenever
// this fixture legitimately changes.
func TestResultCacheStreamGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-identity gains nothing from the race detector")
	}
	req := texcache.ExperimentRequest{
		Experiments: []string{"fig5.4"}, Scale: goldenScale, Scenes: []string{"goblet"},
	}
	rc := texcache.NewResultCache()
	cold := runNDJSON(t, req, texcache.WithResultCache(rc))
	warm := runNDJSON(t, req, texcache.WithResultCache(rc))
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm stream differs from cold before the fixture comparison")
	}

	path := filepath.Join("testdata", "golden", "result-stream.ndjson")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, warm, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if !bytes.Equal(warm, want) {
		t.Errorf("cached NDJSON stream differs from %s (regenerate with -update and bump ResultFormatVersion if intended)", path)
	}
}

// TestResultCacheWarmSpeedup is a bench-check gate (`make bench-check`):
// a request served from a warm result cache must run at least 10x
// faster than the same request replayed from a warm trace store,
// because a result hit writes stored bytes instead of simulating. The
// margin is structural — replay walks millions of addresses, a hit is
// one buffer copy — so the gate holds on a single core.
func TestResultCacheWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	const scale = 4
	req := resultBenchReq(scale)

	// Populate both tiers untimed: traces for the baseline, results for
	// the cache under test.
	traceDir := t.TempDir()
	runNDJSON(t, req, withTraceStore(t, traceDir))
	rc := texcache.NewResultCache()
	runNDJSON(t, req, texcache.WithResultCache(rc), withTraceStore(t, traceDir))

	best := func(run func()) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			run()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	// Each trace-warm run loads from disk through a fresh trace cache.
	// A result hit never reaches its trace cache, so that side's store
	// is opened once, outside the timing.
	traceWarm := best(func() { runNDJSON(t, req, withTraceStore(t, traceDir)) })
	resultOpts := []texcache.ExperimentOption{texcache.WithResultCache(rc), withTraceStore(t, traceDir)}
	resultWarm := best(func() { runNDJSON(t, req, resultOpts...) })

	speedup := float64(traceWarm) / float64(resultWarm)
	t.Logf("trace-warm %v, result-warm %v: %.1fx", traceWarm, resultWarm, speedup)
	if speedup < 10 {
		t.Errorf("warm result-cache speedup %.1fx, want >= 10x (trace-warm %v, result-warm %v)",
			speedup, traceWarm, resultWarm)
	}
}
