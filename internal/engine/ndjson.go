package engine

import (
	"context"
	"io"

	"texcache/internal/api"
	"texcache/internal/report"
)

// StreamNDJSON re-serializes a result stream as newline-delimited JSON:
// each result's recorded report replays through a JSON reporter stamped
// with the experiment ID, reordered into request (Index) order so the
// bytes are deterministic whatever the completion order. Both cmd/texsim
// -json and the texserve response body are this function, which is what
// makes their output byte-identical for the same request.
//
// onResult, when non-nil, runs after each result's lines are written (in
// index order) — texserve uses it to flush the HTTP stream and append
// typed error lines, texsim to log failures. StreamNDJSON returns the
// first write or result error; later results are still drained and
// written so a mid-batch failure doesn't truncate the stream.
func StreamNDJSON(w io.Writer, results <-chan Result, onResult func(Result)) error {
	var firstErr error
	pending := map[int]Result{}
	next := 0
	emit := func(r Result) {
		if r.Report != nil {
			jr := report.NewJSON(w)
			jr.Exp = r.ID
			r.Report.Replay(jr)
			if err := jr.Err(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		if onResult != nil {
			onResult(r)
		}
	}
	for r := range results {
		pending[r.Index] = r
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			emit(q)
		}
	}
	return firstErr
}

// RunRequestNDJSON executes req and writes its NDJSON stream to w —
// RunRequest piped through StreamNDJSON, with the engine's result cache
// (when configured) consulted first. A warm request is served as stored
// bytes, byte-identical to a fresh run; a cold one simulates while
// streaming, and the finished stream is cached for the next caller.
// Every request kind is a pure function of its identity (pinned by the
// determinism tests), grids included, so every kind caches.
//
// onResult fires per finished result exactly as in StreamNDJSON on the
// producing path; requests served from the cache complete without
// callbacks since the stream is written whole.
func (e *Engine) RunRequestNDJSON(ctx context.Context, req api.ExperimentRequest, w io.Writer, onResult func(Result)) error {
	req = req.Normalized()
	if err := api.Validate(req); err != nil {
		return err
	}
	produce := func(w io.Writer, onResult func(Result)) error {
		results, err := e.RunRequest(ctx, req)
		if err != nil {
			return err
		}
		return StreamNDJSON(w, results, onResult)
	}
	if e.opts.ResultCache == nil {
		return produce(w, onResult)
	}
	return e.opts.ResultCache.Serve(ctx, req, w, onResult, produce)
}
