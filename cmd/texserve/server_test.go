package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"texcache"
)

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// errorBody decodes a typed error response.
func errorBody(t *testing.T, resp *http.Response) texcache.RequestError {
	t.Helper()
	var re texcache.RequestError
	if err := json.NewDecoder(resp.Body).Decode(&re); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	return re
}

// TestHandlerErrors is the handler truth table: each bad request gets
// the right status and a typed JSON body with the right wire code.
func TestHandlerErrors(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 1})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad json", `{"scene":`, http.StatusBadRequest, texcache.RequestCodeBadRequest},
		{"unknown field", `{"scnee":"goblet"}`, http.StatusBadRequest, texcache.RequestCodeBadRequest},
		{"bad version", `{"v":9}`, http.StatusBadRequest, texcache.RequestCodeBadRequest},
		{"unknown experiment", `{"experiments":["bogus"]}`, http.StatusNotFound, texcache.RequestCodeUnknownExperiment},
		{"unknown scene", `{"scene":"nowhere","configs":[{"size_bytes":32768,"line_bytes":128,"ways":2}]}`,
			http.StatusNotFound, texcache.RequestCodeUnknownScene},
		{"sweep without configs", `{"scene":"goblet"}`, http.StatusBadRequest, texcache.RequestCodeBadRequest},
		{"bad cache geometry", `{"scene":"goblet","configs":[{"size_bytes":100,"line_bytes":128,"ways":2}]}`,
			http.StatusBadRequest, texcache.RequestCodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if got := resp.Header.Get("X-Texcache-Api-Version"); got != "1" {
				t.Errorf("version header = %q, want 1", got)
			}
			re := errorBody(t, resp)
			if re.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", re.Code, tc.wantCode)
			}
			if re.V != texcache.APIVersion {
				t.Errorf("error body v = %d, want %d", re.V, texcache.APIVersion)
			}
			if re.Message == "" {
				t.Error("error body has no message")
			}
		})
	}
}

func TestHandlerMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 1})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/experiments", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Errorf("Allow = %q, want GET, POST", allow)
	}
}

func TestHandlerList(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		V           int      `json:"v"`
		Experiments []string `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.V != 1 || len(body.Experiments) == 0 {
		t.Errorf("list = %+v, want v1 and a non-empty registry", body)
	}
	want := texcache.ExperimentIDs()
	if len(body.Experiments) != len(want) {
		t.Errorf("listed %d experiments, registry has %d", len(body.Experiments), len(want))
	}
}

// TestHandlerGrid pins grid requests over HTTP: the response body is
// byte-identical to the engine's row stream for the same request — the
// server streams rows only, like a -shard worker; frontier computation
// belongs to whoever owns the full view (a coordinating client).
func TestHandlerGrid(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 1})
	body := `{"scale":8,"grid":{"scenes":["town"],"configs":[` +
		`{"size_bytes":2048,"line_bytes":64,"ways":1},` +
		`{"size_bytes":8192,"line_bytes":64,"ways":2}]}}`
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid request status = %d, want 200", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	var req texcache.ExperimentRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	results, err := texcache.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := texcache.WriteResultsNDJSON(&want, results, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("grid response differs from engine stream:\n--- server ---\n%s\n--- engine ---\n%s", got, want.Bytes())
	}
	if bytes.Contains(got, []byte(`"exp":"pareto"`)) {
		t.Error("server stream contains frontier lines; those belong to the full-view owner")
	}

	// Shard slices work over the wire too: each worker's rows are a
	// subset the coordinator can merge.
	shardBody := `{"scale":8,"grid":{"scenes":["town"],"configs":[` +
		`{"size_bytes":2048,"line_bytes":64,"ways":1}]},"shard":{"index":1,"count":2}}`
	resp2, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(shardBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("sharded grid request status = %d, want 200", resp2.StatusCode)
	}
}

// postBody issues one experiment POST and returns the full response
// body, failing on any non-200.
func postBody(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	return data
}

// TestHandlerResultCacheSingleFlight pins the tentpole invariant under
// the race detector: 16 concurrent clients posting the same request
// cost exactly one simulation, and every client receives byte-identical
// NDJSON.
func TestHandlerResultCacheSingleFlight(t *testing.T) {
	s, ts := testServer(t, serverConfig{Workers: 4, Queue: 64})
	const clients = 16
	body := `{"experiments":["fig5.2"],"scenes":["goblet"],"scale":8}`

	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d body differs from client 0", i)
		}
	}
	if len(bodies[0]) == 0 {
		t.Fatal("empty response body")
	}
	if got := s.results.Produced(); got != 1 {
		t.Errorf("%d concurrent clients caused %d simulations, want 1", clients, got)
	}
}

// TestHandlerResultCacheWarm pins the warm path: a repeated request is
// a result-cache hit with a byte-identical body, and a tenant change
// does not fork the cache key.
func TestHandlerResultCacheWarm(t *testing.T) {
	s, ts := testServer(t, serverConfig{Workers: 1})
	body := `{"scene":"goblet","scale":8,"configs":[{"size_bytes":16384,"line_bytes":64,"ways":2}]}`

	cold := postBody(t, ts.URL, body)
	warm := postBody(t, ts.URL, body)
	if !bytes.Equal(cold, warm) {
		t.Error("warm response differs from cold")
	}
	if s.results.Hits() != 1 || s.results.Produced() != 1 {
		t.Errorf("hits %d produced %d, want 1/1", s.results.Hits(), s.results.Produced())
	}

	// The cache is shared across tenants: only output-relevant fields key
	// the entry.
	other := `{"tenant":"other","scene":"goblet","scale":8,"configs":[{"size_bytes":16384,"line_bytes":64,"ways":2}]}`
	if got := postBody(t, ts.URL, other); !bytes.Equal(got, cold) {
		t.Error("tenant change forked the cached stream")
	}
	if s.results.Produced() != 1 {
		t.Errorf("tenant change re-simulated: produced = %d", s.results.Produced())
	}
}

// TestHandlerGridResultCacheHit pins grids on the result cache: a
// repeated grid request is served the stored bytes without simulating.
func TestHandlerGridResultCacheHit(t *testing.T) {
	s, ts := testServer(t, serverConfig{Workers: 1})
	body := `{"scale":8,"grid":{"scenes":["town"],"configs":[{"size_bytes":2048,"line_bytes":64,"ways":1}]}}`
	a := postBody(t, ts.URL, body)
	b := postBody(t, ts.URL, body)
	if !bytes.Equal(a, b) {
		t.Error("repeated grid responses differ")
	}
	if s.results.Produced() != 1 || s.results.Hits() != 1 {
		t.Errorf("repeated grid request: produced %d hits %d, want 1/1",
			s.results.Produced(), s.results.Hits())
	}
}

// TestHandlerResultDirPersists pins the persistent tier over HTTP: a
// fresh server on the same result directory serves the stored bytes
// without simulating.
func TestHandlerResultDirPersists(t *testing.T) {
	dir := t.TempDir()
	body := `{"experiments":["table2.1"],"scenes":["goblet"],"scale":8}`

	_, ts := testServer(t, serverConfig{Workers: 1, ResultDir: dir})
	cold := postBody(t, ts.URL, body)

	s2, ts2 := testServer(t, serverConfig{Workers: 1, ResultDir: dir})
	warm := postBody(t, ts2.URL, body)
	if !bytes.Equal(cold, warm) {
		t.Error("restarted server serves different bytes")
	}
	if s2.results.Produced() != 0 || s2.results.StoreHits() != 1 {
		t.Errorf("restart re-simulated: produced %d storeHits %d", s2.results.Produced(), s2.results.StoreHits())
	}
}

// TestHandlerCoalescedClientSurvivesHangUp: a client coalesced onto
// another client's run gets the full stream, byte-identical to a fresh
// run, when the client that started the run hangs up before it ends.
func TestHandlerCoalescedClientSurvivesHangUp(t *testing.T) {
	s, ts := testServer(t, serverConfig{Workers: 2})
	body := `{"experiments":["parallel","fig6.4"],"scale":8}`

	actx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		req, err := http.NewRequestWithContext(actx, http.MethodPost, ts.URL+"/v1/experiments", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the first client's run", func() bool { return s.results.Misses() == 1 })
	type reply struct {
		status int
		body   []byte
		err    error
	}
	bDone := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
		if err != nil {
			bDone <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		bDone <- reply{status: resp.StatusCode, body: b, err: err}
	}()
	// Client B holds the second scheduler slot once admitted, and goes
	// from there straight to the result cache to wait on A's run.
	waitFor("the second client's admission", func() bool {
		s.sched.mu.Lock()
		defer s.sched.mu.Unlock()
		return s.sched.slots == 0
	})
	hangUp()
	<-aDone

	b := <-bDone
	if b.err != nil {
		t.Fatal(b.err)
	}
	if b.status != http.StatusOK {
		t.Fatalf("coalesced client: status %d, body %s (produced %d, coalesced %d)",
			b.status, b.body, s.results.Produced(), s.results.Coalesced())
	}
	if want := texsimNDJSON(t, body); !bytes.Equal(b.body, want) {
		t.Errorf("coalesced client got %d bytes, a fresh run %d; streams differ", len(b.body), len(want))
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 1})
	for _, path := range []string{"/healthz", "/metrics", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestHandlerSaturation pins the backpressure path: with the only slot
// held and the tenant's queue full, a request gets 429, a saturated
// error body and a Retry-After header — deterministically, because the
// test owns the slot.
func TestHandlerSaturation(t *testing.T) {
	s, ts := testServer(t, serverConfig{Workers: 1, Queue: 1})
	ctx := context.Background()
	if err := s.sched.acquire(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- s.sched.acquire(ctx, "t") }()
	waitQueued(t, s.sched, 1)
	t.Cleanup(func() {
		s.sched.release() // frees the held slot, granting the queued waiter
		if err := <-queued; err == nil {
			s.sched.release()
		}
	})

	body := `{"tenant":"t","experiments":["fig5.2"],"scale":8}`
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	if re := errorBody(t, resp); re.Code != texcache.RequestCodeSaturated {
		t.Errorf("code = %q, want saturated", re.Code)
	}
}
