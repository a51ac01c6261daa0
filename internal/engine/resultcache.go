package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"texcache/internal/api"
	"texcache/internal/cas"
	"texcache/internal/obs"
	"texcache/internal/trace"
)

// ResultFormatVersion names the NDJSON result serialization. It
// participates in every result-cache key, so bumping it (whenever
// StreamNDJSON's byte output changes — new fields, reordered lines,
// different number formatting) orphans stale cached streams instead of
// serving them.
const ResultFormatVersion = 1

// resultKey canonicalizes a request's result identity: the memory key,
// the string echoed into persistent entries for verification, and (as
// its hex SHA-256) the <hash>.result filename stem. Every version that
// can change the bytes is in the key: the API wire version (request
// semantics), the trace codec version (address generation), the result
// format version (serialization), and the build of the running program
// (the model itself), so a store filled by another build only misses.
func resultKey(req api.ExperimentRequest) string {
	return "api=" + strconv.Itoa(api.Version) +
		"\ncodec=" + trace.CodecVersion +
		"\nresult=" + strconv.Itoa(ResultFormatVersion) +
		"\nbuild=" + buildID() +
		"\nrequest=" + req.ResultIdentity() + "\n"
}

// buildID names the running executable: the Go build ID from its
// .note.go.buildid ELF note, or else the SHA-256 of the file. It is read
// on the first result key, not at start-up, so a run that never
// consults the result cache never pays for it.
var buildID = sync.OnceValue(func() string {
	if exe, err := os.Executable(); err == nil {
		if id, ok := executableID(exe); ok {
			return id
		}
	}
	// Nothing names the build: key this process alone, so its stored
	// entries are never served to another.
	return "pid:" + strconv.Itoa(os.Getpid()) + "@" + strconv.FormatInt(time.Now().UnixNano(), 10)
})

// executableID identifies the executable at path by its Go build ID
// note, or by the SHA-256 of the file where it has none; ok is false
// when the file cannot be read.
func executableID(path string) (id string, ok bool) {
	if f, err := elf.Open(path); err == nil {
		defer f.Close()
		// An ELF note: name size, descriptor size and type, then the
		// name ("Go") and the descriptor (the build ID), each padded to
		// a multiple of 4 bytes.
		if sec := f.Section(".note.go.buildid"); sec != nil {
			if note, err := sec.Data(); err == nil && len(note) > 12 {
				start := 12 + (int(f.ByteOrder.Uint32(note))+3)&^3
				if end := start + int(f.ByteOrder.Uint32(note[4:])); start < end && end <= len(note) {
					return string(note[start:end]), true
				}
			}
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:]), true
}

// Budgets for the memory tier. 256 finished streams at the observed
// ~2-60KB per stream is a few MB of memory; the byte budget backstops
// pathological giant streams.
const (
	resultMaxEntries = 256
	resultMaxBytes   = 64 << 20
)

// resultMagic begins every persistent entry: "TXRESULT" then format
// version 1.
const resultMagic = "TXRESULT\x01"

// ResultCache memoizes finished NDJSON result streams keyed by the
// canonical request identity, with single-flight semantics: when several
// clients ask for the same request concurrently, exactly one runs the
// simulation (streaming its rows out as they are produced) and the rest
// wait, then receive the identical bytes. It is the tier above the
// TraceCache: a trace hit skips rendering but still replays the cache
// simulation, a result hit skips everything and writes stored bytes.
//
// The memory tier is a bounded LRU over completed entries; above the
// entry or byte budget the least-recently-served stream is evicted (and
// re-produced on the next request — eviction is never a correctness
// event). With a directory attached the cache gains a persistent tier
// mirroring the trace store: entries live as <sha256(key)>.result cas
// entries, and any damaged entry is deleted and treated as a miss.
//
// Failed productions are not cached: the entry is dropped so a later
// request (perhaps with a different deadline) retries. Only streams that
// finished with no result error and no write error are stored.
type ResultCache struct {
	mem *cas.Memo[string, []byte]
	dir *cas.Dir // persistent tier, nil until AttachDir

	hits, misses, coalesced, produced, storeHits atomic.Int64
}

// NewResultCache returns an empty memory-only result cache.
func NewResultCache() *ResultCache { return newResultCache(resultMaxEntries, resultMaxBytes) }

// newResultCache returns an empty memory-only result cache with the
// given memory budgets.
func newResultCache(maxEntries int, maxBytes int64) *ResultCache {
	return &ResultCache{mem: cas.NewMemo[string, []byte](maxEntries, maxBytes, func() {
		obs.Default().Sub("engine").Sub("result_cache").Counter("evictions").Inc()
	})}
}

// AttachDir roots the persistent tier at dir, creating the directory.
// Call it before the first Serve.
func (rc *ResultCache) AttachDir(dir string) error {
	d, err := cas.Open(dir, ".result", resultMagic)
	if err != nil {
		return fmt.Errorf("engine: opening result store: %w", err)
	}
	rc.dir = d
	return nil
}

// Hits reports requests served from a completed entry (memory tier).
func (rc *ResultCache) Hits() int { return int(rc.hits.Load()) }

// Misses reports requests that found no entry and became producers.
func (rc *ResultCache) Misses() int { return int(rc.misses.Load()) }

// Coalesced reports requests that waited on an in-flight production.
func (rc *ResultCache) Coalesced() int { return int(rc.coalesced.Load()) }

// Evictions reports completed entries dropped to stay within budget.
func (rc *ResultCache) Evictions() int { return rc.mem.Evictions() }

// Produced reports how many times the cache actually ran a simulation —
// the "exactly one simulation per distinct key" number. Persistent-tier
// loads don't count.
func (rc *ResultCache) Produced() int { return int(rc.produced.Load()) }

// StoreHits reports misses served by the persistent tier without a run.
func (rc *ResultCache) StoreHits() int { return int(rc.storeHits.Load()) }

// Len reports the number of completed entries resident in memory.
func (rc *ResultCache) Len() int { return rc.mem.Len() }

// SizeBytes reports the total bytes of completed entries in memory.
func (rc *ResultCache) SizeBytes() int64 { return rc.mem.Bytes() }

// Serve writes the finished NDJSON stream for req to w. A hit writes
// stored bytes; a miss runs produce exactly once per key across all
// concurrent callers, streaming its output to w as it is generated
// while teeing a copy for the cache. onResult (may be nil) is forwarded
// to produce so the producer's per-result callbacks (HTTP flushes,
// error trailers) still fire; waiters served from stored bytes get no
// callbacks — the stream is already complete when they write it.
//
// The producer's context governs the production; a cancelled waiter
// returns early while the run continues for whoever still wants it.
// When the producer's own context ends and its run fails for that
// reason, a waiter that is still live does not inherit the error: it
// runs produce itself, or waits on whichever caller does.
func (rc *ResultCache) Serve(ctx context.Context, req api.ExperimentRequest, w io.Writer, onResult func(Result), produce func(io.Writer, func(Result)) error) error {
	canonical := resultKey(req)
	reg := obs.Default().Sub("engine").Sub("result_cache")

	// streamed is set by this caller's own production once the bytes
	// have gone out to w; only the producer's goroutine touches it.
	streamed := false
	data, outcome, err := rc.mem.Do(ctx, canonical, func() ([]byte, int64, error) {
		rc.misses.Add(1)
		reg.Counter("misses").Inc()
		// Persistent tier: a stored stream is promoted into memory and
		// served without a run. A damaged entry, which the load has
		// already removed, is counted and produced again.
		if rc.dir != nil {
			data, err := rc.dir.Load(canonical)
			if err == nil {
				rc.storeHits.Add(1)
				reg.Counter("store_hits").Inc()
				return data, int64(len(data)), nil
			}
			if !os.IsNotExist(err) {
				reg.Counter("corrupt").Inc()
			}
		}
		rc.produced.Add(1)
		reg.Counter("produced").Inc()
		streamed = true

		// Run the simulation, streaming to the caller while buffering the
		// bytes for the cache. A result-level error (Result.Err) poisons
		// the stream for caching even when the writer never failed.
		var buf bytes.Buffer
		failed := false
		err := produce(io.MultiWriter(w, &buf), func(r Result) {
			if r.Err != nil {
				failed = true
			}
			if onResult != nil {
				onResult(r)
			}
		})
		if err == nil {
			err = ctx.Err()
		}
		if err == nil && failed {
			// A per-result failure with a healthy stream: the bytes went
			// out (with the caller's error trailer), but they describe a
			// failed run and must not be replayed to future clients.
			err = fmt.Errorf("engine: result stream not cacheable: a result failed")
		}
		return buf.Bytes(), int64(buf.Len()), err
	})
	switch outcome {
	case cas.Hit:
		rc.hits.Add(1)
		reg.Counter("hits").Inc()
	case cas.Coalesced:
		rc.coalesced.Add(1)
		reg.Counter("coalesced").Inc()
	}
	if err != nil {
		return err
	}
	if streamed {
		// The waiters are already released; write the persistent tier
		// back. Best effort: an unwritable store degrades to cold
		// repeats, not failures.
		if rc.dir != nil && rc.dir.Save(canonical, data) == nil {
			reg.Counter("store_saves").Inc()
		}
		return nil
	}
	_, err = w.Write(data)
	return err
}
