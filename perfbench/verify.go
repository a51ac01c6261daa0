package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"texcache/internal/api"
	"texcache/internal/engine"
	"texcache/internal/exp"
)

// decodeRequest is texserve's request front end: a strict JSON decode
// (unknown fields rejected), then Normalize and Validate.
func decodeRequest(body []byte) (api.ExperimentRequest, error) {
	var req api.ExperimentRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	req = req.Normalized()
	return req, api.Validate(req)
}

// references computes the SHA-256 of the NDJSON stream an uncached
// in-process run produces for each body: no result cache, one shared
// in-memory trace cache (traces are deterministic, so sharing renders
// changes no byte). workers bodies run at once.
func references(ctx context.Context, bodies map[string]bool, workers int) (map[string][sha256.Size]byte, error) {
	tc := engine.NewTraceCache()
	out := map[string][sha256.Size]byte{}
	var mu sync.Mutex
	var firstErr error
	todo := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range todo {
				sum, err := referenceSum(ctx, []byte(b), tc)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[b] = sum
				mu.Unlock()
			}
		}()
	}
	for b := range bodies {
		todo <- b
	}
	close(todo)
	wg.Wait()
	return out, firstErr
}

// referenceSum runs one body in-process exactly as texserve does, minus
// the result cache, and hashes the stream.
func referenceSum(ctx context.Context, body []byte, tc exp.TraceProvider) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	req, err := decodeRequest(body)
	if err != nil {
		return sum, fmt.Errorf("reference: %w", err)
	}
	h := sha256.New()
	eng := engine.New(engine.WithWorkers(req.Workers), engine.WithRenderWorkers(req.RenderWorkers), engine.WithTraces(tc))
	if err := eng.RunRequestNDJSON(ctx, req, h, nil); err != nil {
		return sum, fmt.Errorf("reference: %w", err)
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// loadGoldens reads testdata/golden/<id>.txt for every registered
// experiment.
func loadGoldens(root string) (map[string]string, error) {
	out := map[string]string{}
	for _, id := range exp.IDs() {
		b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", id+".txt"))
		if err != nil {
			return nil, err
		}
		out[id] = string(b)
	}
	return out, nil
}

// batchExperiment is one experiment's block of texsim's text output.
type batchExperiment struct {
	text    string
	elapsed time.Duration
}

// parseBatch splits `texsim -exp all` text output into each experiment's
// output, dropping texsim's "=== id: title (scale n) ===" banner and its
// "--- id done in d ---" timing line. ids is the expected order.
func parseBatch(out string, ids []string) (map[string]batchExperiment, error) {
	res := map[string]batchExperiment{}
	for _, id := range ids {
		head := "=== " + id + ": "
		if !strings.HasPrefix(out, head) {
			return res, fmt.Errorf("texsim output: want %q banner next", id)
		}
		nl := strings.IndexByte(out, '\n')
		out = out[nl+1:]
		tail := "--- " + id + " done in "
		end := strings.Index(out, tail)
		if end < 0 || (end > 0 && out[end-1] != '\n') {
			return res, fmt.Errorf("texsim output: no timing line for %s", id)
		}
		text := out[:end]
		out = out[end+len(tail):]
		stop := strings.Index(out, " ---\n\n")
		if stop < 0 {
			return res, fmt.Errorf("texsim output: malformed timing line for %s", id)
		}
		d, err := time.ParseDuration(out[:stop])
		if err != nil {
			return res, fmt.Errorf("texsim output: %s: %w", id, err)
		}
		out = out[stop+len(" ---\n\n"):]
		res[id] = batchExperiment{text: text, elapsed: d}
	}
	if !strings.HasPrefix(out, fmt.Sprintf("=== %d experiments in ", len(ids))) {
		return res, fmt.Errorf("texsim output: no batch summary line")
	}
	return res, nil
}
