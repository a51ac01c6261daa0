package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"texcache/internal/api"
	"texcache/internal/cas"
	"texcache/internal/exp"
	"texcache/internal/raster"
	"texcache/internal/texture"
)

// sweepReq builds a small sweep request; the scene name keys
// the result identity, so distinct names make distinct cache entries.
func sweepReq(scene string) api.ExperimentRequest {
	return api.ExperimentRequest{
		Scene: scene,
		Configs: []api.CacheConfig{
			{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2},
		},
		Scale: 8,
	}
}

// fakeProduce returns a produce function that writes payload and counts
// its invocations.
func fakeProduce(payload string, runs *int, mu *sync.Mutex) func(w io.Writer, cb func(Result)) error {
	return func(w io.Writer, cb func(Result)) error {
		mu.Lock()
		*runs++
		mu.Unlock()
		_, err := w.Write([]byte(payload))
		return err
	}
}

func serveString(t *testing.T, rc *ResultCache, req api.ExperimentRequest, produce func(w io.Writer, cb func(Result)) error) string {
	t.Helper()
	var buf bytes.Buffer
	err := rc.Serve(context.Background(), req, &buf, nil, func(w io.Writer, cb func(Result)) error {
		return produce(w, cb)
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestResultCacheSingleFlight(t *testing.T) {
	rc := NewResultCache()
	req := sweepReq("goblet")
	var mu sync.Mutex
	runs := 0
	produce := fakeProduce("line1\nline2\n", &runs, &mu)

	const clients = 16
	var wg sync.WaitGroup
	outs := make([]string, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			errs[i] = rc.Serve(context.Background(), req, &buf, nil, func(w io.Writer, cb func(Result)) error {
				return produce(w, cb)
			})
			outs[i] = buf.String()
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if outs[i] != "line1\nline2\n" {
			t.Errorf("client %d got %q", i, outs[i])
		}
	}
	if runs != 1 {
		t.Errorf("%d concurrent requests ran produce %d times, want 1", clients, runs)
	}
	if got := rc.Produced(); got != 1 {
		t.Errorf("Produced() = %d, want 1", got)
	}
	if h, c, m := rc.Hits(), rc.Coalesced(), rc.Misses(); m != 1 || h+c != clients-1 {
		t.Errorf("hits %d + coalesced %d, misses %d; want hits+coalesced=%d, misses=1", h, c, m, clients-1)
	}
}

func TestResultCacheHitServesStoredBytes(t *testing.T) {
	rc := NewResultCache()
	req := sweepReq("goblet")
	var mu sync.Mutex
	runs := 0
	produce := fakeProduce("payload\n", &runs, &mu)

	first := serveString(t, rc, req, produce)
	second := serveString(t, rc, req, produce)
	if first != second || first != "payload\n" {
		t.Fatalf("warm bytes differ: %q vs %q", first, second)
	}
	if runs != 1 {
		t.Errorf("repeat request re-ran produce: runs = %d", runs)
	}
	if rc.Hits() != 1 || rc.Misses() != 1 {
		t.Errorf("hits %d misses %d, want 1/1", rc.Hits(), rc.Misses())
	}
	if rc.Len() != 1 || rc.SizeBytes() != int64(len("payload\n")) {
		t.Errorf("Len %d SizeBytes %d", rc.Len(), rc.SizeBytes())
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	rc := newResultCache(2, resultMaxBytes)
	var mu sync.Mutex
	runs := 0
	produce := fakeProduce("x\n", &runs, &mu)

	scenes := []string{"a", "b", "c"}
	for _, s := range scenes {
		serveString(t, rc, sweepReq(s), produce)
	}
	if rc.Len() != 2 {
		t.Errorf("capped cache holds %d entries, want 2", rc.Len())
	}
	if rc.Evictions() != 1 {
		t.Errorf("Evictions() = %d, want 1", rc.Evictions())
	}
	// "a" was least recently served and must re-produce; the re-produced
	// bytes are identical (eviction is never a correctness event).
	before := runs
	if got := serveString(t, rc, sweepReq("a"), produce); got != "x\n" {
		t.Errorf("re-produced entry differs: %q", got)
	}
	if runs != before+1 {
		t.Errorf("evicted entry served without re-producing (runs %d -> %d)", before, runs)
	}
}

func TestResultCacheByteBudget(t *testing.T) {
	rc := newResultCache(resultMaxEntries, 8) // tiny: every completed entry exceeds it
	var mu sync.Mutex
	runs := 0
	produce := fakeProduce("0123456789\n", &runs, &mu)

	serveString(t, rc, sweepReq("a"), produce)
	serveString(t, rc, sweepReq("b"), produce)
	// Over-budget, but the most recent entry always survives.
	if rc.Len() != 1 {
		t.Errorf("byte-capped cache holds %d entries, want 1", rc.Len())
	}
	if rc.Evictions() == 0 {
		t.Error("byte budget never evicted")
	}
}

func TestResultCacheFailedProduceNotCached(t *testing.T) {
	rc := NewResultCache()
	req := sweepReq("goblet")
	boom := errors.New("boom")
	runs := 0
	err := rc.Serve(context.Background(), req, &bytes.Buffer{}, nil, func(w io.Writer, cb func(Result)) error {
		runs++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Serve err = %v, want boom", err)
	}
	// The failure was not cached: the next request runs again and can
	// succeed.
	var buf bytes.Buffer
	err = rc.Serve(context.Background(), req, &buf, nil, func(w io.Writer, cb func(Result)) error {
		runs++
		_, werr := w.Write([]byte("ok\n"))
		return werr
	})
	if err != nil || buf.String() != "ok\n" {
		t.Fatalf("retry after failure: %v, %q", err, buf.String())
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2", runs)
	}
}

func TestResultCachePerResultErrorPoisons(t *testing.T) {
	rc := NewResultCache()
	req := sweepReq("goblet")
	runs := 0
	// The stream writes fine but one result carries an error: the bytes
	// went to the caller yet must not be replayed to future clients.
	err := rc.Serve(context.Background(), req, &bytes.Buffer{}, nil, func(w io.Writer, cb func(Result)) error {
		runs++
		w.Write([]byte("row\n"))
		cb(Result{ID: "x", Err: errors.New("experiment failed")})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "not cacheable") {
		t.Fatalf("Serve err = %v, want not-cacheable error", err)
	}
	serveString(t, rc, req, fakeProduce("clean\n", &runs, &sync.Mutex{}))
	if runs != 2 {
		t.Errorf("poisoned entry was served: runs = %d, want 2", runs)
	}
}

func TestResultCacheOnResultForwarded(t *testing.T) {
	rc := NewResultCache()
	var ids []string
	err := rc.Serve(context.Background(), sweepReq("goblet"), &bytes.Buffer{}, func(r Result) {
		ids = append(ids, r.ID)
	}, func(w io.Writer, cb func(Result)) error {
		cb(Result{ID: "one"})
		cb(Result{ID: "two"})
		_, werr := w.Write([]byte("x\n"))
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "one" || ids[1] != "two" {
		t.Errorf("onResult saw %v, want [one two]", ids)
	}
}

func TestResultCacheCancelledWaiter(t *testing.T) {
	rc := NewResultCache()
	req := sweepReq("goblet")
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc.Serve(context.Background(), req, &bytes.Buffer{}, nil, func(w io.Writer, cb func(Result)) error {
			close(started)
			<-release
			_, err := w.Write([]byte("x\n"))
			return err
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := rc.Serve(ctx, req, &bytes.Buffer{}, nil, func(w io.Writer, cb func(Result)) error {
		t.Error("cancelled waiter became a producer")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
}

// waitingCtx closes waiting when a caller first asks for its Done
// channel, which the result cache's memo does only once it waits on an
// in-flight production. Its Done channel is nil: it never ends.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return nil
}

// TestResultCacheWaiterOutlivesProducer: when the client whose request
// is producing a stream goes away, a coalesced client that is still
// there gets the whole stream, byte-identical to a fresh run, instead
// of the departed client's context error.
func TestResultCacheWaiterOutlivesProducer(t *testing.T) {
	req := sweepReq("goblet")
	var fresh bytes.Buffer
	if err := New().RunRequestNDJSON(context.Background(), req, &fresh, nil); err != nil {
		t.Fatal(err)
	}

	rc := NewResultCache()
	actx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	aErr := make(chan error, 1)
	go func() {
		aErr <- rc.Serve(actx, req, io.Discard, nil, func(w io.Writer, cb func(Result)) error {
			close(started)
			<-actx.Done() // the client hangs up before its stream is done
			return actx.Err()
		})
	}()
	<-started
	bctx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
	var got bytes.Buffer
	bErr := make(chan error, 1)
	go func() {
		bErr <- New(WithResultCache(rc)).RunRequestNDJSON(bctx, req, &got, nil)
	}()
	<-bctx.waiting
	cancel()
	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed client: err = %v, want context.Canceled", err)
	}
	if err := <-bErr; err != nil {
		t.Fatalf("waiting client: %v", err)
	}
	if !bytes.Equal(got.Bytes(), fresh.Bytes()) {
		t.Errorf("waiting client got %d bytes, a fresh run %d; streams differ", got.Len(), fresh.Len())
	}
	if rc.Produced() != 2 || rc.Len() != 1 {
		t.Errorf("produced %d, entries %d; want 2 and the waiter's stream stored", rc.Produced(), rc.Len())
	}
}

func TestResultCachePersistentTier(t *testing.T) {
	dir := t.TempDir()
	req := sweepReq("goblet")
	var mu sync.Mutex
	runs := 0
	produce := fakeProduce("stored\n", &runs, &mu)

	cold := NewResultCache()
	if err := cold.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	want := serveString(t, cold, req, produce)

	// A fresh cache on the same directory serves the stored bytes
	// without producing.
	warm := NewResultCache()
	if err := warm.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	got := serveString(t, warm, req, produce)
	if got != want {
		t.Fatalf("stored bytes differ: %q vs %q", got, want)
	}
	if runs != 1 {
		t.Errorf("persistent tier missed: runs = %d, want 1", runs)
	}
	if warm.StoreHits() != 1 || warm.Produced() != 0 {
		t.Errorf("StoreHits %d Produced %d, want 1/0", warm.StoreHits(), warm.Produced())
	}

	// Corrupting the entry degrades to a miss: the next fresh cache
	// re-produces and the damaged file is removed.
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("store entries: %v (err %v)", ents, err)
	}
	name := ents[0].Name()
	if !strings.HasSuffix(name, ".result") {
		t.Fatalf("entry name %q, want *.result", name)
	}
	p := filepath.Join(dir, name)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rere := NewResultCache()
	if err := rere.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := serveString(t, rere, req, produce); got != want {
		t.Fatalf("re-produced bytes differ: %q", got)
	}
	if runs != 2 || rere.Produced() != 1 {
		t.Errorf("corrupt entry served: runs %d Produced %d", runs, rere.Produced())
	}

	// Truncated and wrong-magic entries are equally misses.
	for _, bad := range [][]byte{{}, []byte("short"), append([]byte("NOTMAGIC!"), raw[9:]...)} {
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewResultCache()
		if err := fresh.AttachDir(dir); err != nil {
			t.Fatal(err)
		}
		if got := serveString(t, fresh, req, produce); got != want {
			t.Fatalf("damaged entry (%d bytes) served wrong bytes: %q", len(bad), got)
		}
	}

	// An unusable directory fails fast on attach.
	f := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewResultCache().AttachDir(filepath.Join(f, "sub")); err == nil {
		t.Error("AttachDir under a plain file succeeded")
	}
}

func TestResultCacheKeyMismatchIsMiss(t *testing.T) {
	// Two different requests never alias, even through the persistent
	// tier: the canonical key is echoed into the entry and verified.
	dir := t.TempDir()
	var mu sync.Mutex
	runs := 0
	rc := NewResultCache()
	if err := rc.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	a := serveString(t, rc, sweepReq("goblet"), fakeProduce("A\n", &runs, &mu))
	b := serveString(t, rc, sweepReq("town"), fakeProduce("B\n", &runs, &mu))
	if a == b || runs != 2 {
		t.Fatalf("distinct requests aliased: %q %q runs=%d", a, b, runs)
	}
}

// TestResultCacheOtherBuildIsMiss pins the build in the result key: an
// entry another build stored for the same request is never served,
// whether it sits under its own name or under this build's.
func TestResultCacheOtherBuildIsMiss(t *testing.T) {
	req := sweepReq("goblet")
	key := resultKey(req)
	if !strings.Contains(key, "\nbuild="+buildID()+"\n") {
		t.Fatalf("result key does not name the build %q:\n%s", buildID(), key)
	}
	other := strings.Replace(key, "build="+buildID(), "build=another-build", 1)

	for _, renamed := range []bool{false, true} {
		dir := t.TempDir()
		store, err := cas.Open(dir, ".result", resultMagic)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(other, []byte("STALE\n")); err != nil {
			t.Fatal(err)
		}
		if renamed {
			if err := os.Rename(store.File(other), store.File(key)); err != nil {
				t.Fatal(err)
			}
		}
		rc := NewResultCache()
		if err := rc.AttachDir(dir); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		runs := 0
		if got := serveString(t, rc, req, fakeProduce("FRESH\n", &runs, &mu)); got != "FRESH\n" {
			t.Errorf("renamed=%v: served %q from another build's entry", renamed, got)
		}
		if runs != 1 || rc.StoreHits() != 0 {
			t.Errorf("renamed=%v: runs %d StoreHits %d, want 1/0", renamed, runs, rc.StoreHits())
		}
	}
}

// TestExecutableID pins both ways of naming a build: a Go executable
// by the build ID note its linker wrote, any other file by its SHA-256.
func TestExecutableID(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := executableID(exe); !ok || id != buildID() || runtime.GOOS == "linux" && strings.HasPrefix(id, "sha256:") {
		t.Errorf("executableID(test binary) = %q, %v; buildID() = %q", id, ok, buildID())
	}
	path := filepath.Join(t.TempDir(), "script")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte("#!/bin/sh\n"))
	if id, ok := executableID(path); !ok || id != "sha256:"+hex.EncodeToString(sum[:]) {
		t.Errorf("executableID(non-ELF file) = %q, %v; want its SHA-256", id, ok)
	}
	if id, ok := executableID(filepath.Join(t.TempDir(), "missing")); ok {
		t.Errorf("executableID(missing file) = %q, want not ok", id)
	}
}

func TestResultKeyIgnoresExecutionFields(t *testing.T) {
	base := sweepReq("goblet")
	want := resultKey(base)

	same := base
	same.Tenant = "alice"
	same.Workers = 7
	same.RenderWorkers = 3
	same.Sweep = api.SweepPerConfig
	if got := resultKey(same); got != want {
		t.Error("execution-only fields changed the result key")
	}

	for name, mut := range map[string]func(*api.ExperimentRequest){
		"scene":  func(r *api.ExperimentRequest) { r.Scene = "town" },
		"scale":  func(r *api.ExperimentRequest) { r.Scale = 4 },
		"config": func(r *api.ExperimentRequest) { r.Configs[0].Ways = 4 },
		"layout": func(r *api.ExperimentRequest) { r.Layout = &api.Layout{Kind: "nonblocked"} },
	} {
		diff := base
		diff.Configs = append([]api.CacheConfig(nil), base.Configs...)
		mut(&diff)
		if got := resultKey(diff); got == want {
			t.Errorf("%s change did not change the result key", name)
		}
	}
}

func TestTraceCacheLRUEviction(t *testing.T) {
	// A capped trace cache stays within budget and re-renders evicted
	// traces correctly.
	tc := newTraceCache(1, traceMaxBytes)
	keys := []string{"goblet", "town"}
	lens := map[string]int{}
	for _, scene := range keys {
		str, err := tc.SceneTrace(context.Background(), traceKeyFor(scene), 16)
		if err != nil {
			t.Fatal(err)
		}
		lens[scene] = str.Len()
	}
	if tc.Len() != 1 {
		t.Errorf("capped trace cache holds %d entries, want 1", tc.Len())
	}
	if tc.Evictions() != 1 {
		t.Errorf("Evictions() = %d, want 1", tc.Evictions())
	}
	// goblet was evicted: asking again re-renders and the stream is
	// identical in length (full bit-identity is pinned elsewhere).
	str, err := tc.SceneTrace(context.Background(), traceKeyFor("goblet"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if str.Len() != lens["goblet"] {
		t.Errorf("re-rendered trace has %d addresses, first render had %d", str.Len(), lens["goblet"])
	}
	if n := tc.Renders(); n != 3 {
		t.Errorf("renders = %d, want 3 (two cold + one re-render)", n)
	}
}

// traceKeyFor is the default blocked-8 row-major trace key for a scene.
func traceKeyFor(scene string) exp.TraceKey {
	return exp.TraceKey{
		Scene:     scene,
		Layout:    texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8},
		Traversal: raster.Traversal{Order: raster.RowMajor},
	}
}
