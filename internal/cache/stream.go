package cache

import (
	"context"
	"sync"
	"time"

	"texcache/internal/obs"
)

// The replay surface. Every entry point consumes an AddrStream, so a
// materialized *Trace and a compact delta-encoded trace (internal/trace)
// replay through the same code, block by block through their cursors.
// The statistics any sink accumulates are bit-identical whatever the
// stream's representation, because every cursor yields the exact
// recorded address order. There are four entry points:
//
//   - ReplayStream feeds the stream to each sink in turn.
//   - ReplayStreamConcurrent feeds it to every sink at once, one
//     goroutine and one cursor per sink.
//   - SimulateConfigsGroupedStream answers a configuration sweep with
//     classified statistics from one grouped walk per line size.
//   - MissRatesGroupedStream answers the same sweep with miss rates only.
//
// Trace.SimulateConfigs, one classifying cache per configuration in
// turn, is the serial oracle the grouped sweeps are checked against.

// ReplayStream feeds the whole stream to each sink in turn.
//
// Metrics are flushed in bulk after the pass (replay.addresses,
// replay.pass): the per-block loops carry no instrumentation, and with
// no registry attached the whole accounting reduces to one nil check.
func ReplayStream(s AddrStream, sinks ...Sink) {
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	for _, sink := range sinks {
		replayCursor(s.Cursor(), sink)
	}
	if reg != nil {
		flushReplay(reg, start, uint64(s.Len())*uint64(len(sinks)), "pass")
	}
}

// replayCursor drains one cursor into one sink. Batch-capable sinks
// (caches, the profilers, the grouped simulator) consume whole blocks,
// so their hot loops avoid the per-address interface call.
func replayCursor(cur Cursor, sink Sink) {
	if bs, ok := sink.(batchSink); ok {
		for block := cur.Next(); block != nil; block = cur.Next() {
			bs.AccessBatch(block)
		}
		return
	}
	for block := cur.Next(); block != nil; block = cur.Next() {
		for _, a := range block {
			sink.Access(a)
		}
	}
}

// ReplayStreamConcurrent feeds the whole stream to every sink
// concurrently, one sink per goroutine. Each sink takes its own cursor,
// so sinks decode independently and no decoded block ever crosses a
// goroutine boundary; a *Trace cursor decodes nothing and hands every
// sink zero-copy views of the shared address slice. Replay order within
// each sink is the serial order, so any deterministic sink (Cache,
// StackDist) accumulates exactly the statistics ReplayStream would.
//
// On cancellation the pass stops between blocks and the context's error
// is returned; the sinks are then partially updated and should be
// discarded.
func ReplayStreamConcurrent(ctx context.Context, s AddrStream, sinks ...Sink) error {
	if len(sinks) == 0 {
		return ctx.Err()
	}
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	var wg sync.WaitGroup
	done := ctx.Done()
	for _, sink := range sinks {
		wg.Add(1)
		go func(sink Sink) {
			defer wg.Done()
			cur := s.Cursor()
			if done == nil {
				replayCursor(cur, sink)
				return
			}
			bs, _ := sink.(batchSink)
			for block := cur.Next(); block != nil; block = cur.Next() {
				select {
				case <-done:
					return
				default:
				}
				if bs != nil {
					bs.AccessBatch(block)
					continue
				}
				for _, a := range block {
					sink.Access(a)
				}
			}
		}(sink)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if reg != nil {
		flushReplay(reg, start, uint64(s.Len())*uint64(len(sinks)), "concurrent_pass")
	}
	return nil
}

// SimulateConfigsGroupedStream answers a whole configuration sweep in a
// single concurrent pass over the stream. Every LRU configuration
// sharing a line size takes its statistics (hits, misses and the
// cold/capacity/conflict split) from one generalized stack simulation of
// that line size; FIFO and random replacement, which the stack algorithm
// cannot cover, fall back to a classifying cache each within the same
// pass. Results are bit-identical to Trace.SimulateConfigs and
// index-aligned with cfgs. Invalid configurations surface as
// *ConfigError before any replay work.
func SimulateConfigsGroupedStream(ctx context.Context, s AddrStream, cfgs []Config) ([]Stats, error) {
	p, err := planSweep(cfgs, true)
	if err != nil {
		return nil, err
	}
	if err := ReplayStreamConcurrent(ctx, s, p.sinks()...); err != nil {
		return nil, err
	}
	return p.stats(), nil
}

// MissRatesGroupedStream is the rate-only form of
// SimulateConfigsGroupedStream: the miss rate of every configuration,
// index-aligned with cfgs. Its FIFO and random fallbacks are plain
// caches that skip the 3C shadow, so a sweep that only plots miss rates
// pays nothing for the classification it would discard.
func MissRatesGroupedStream(ctx context.Context, s AddrStream, cfgs []Config) ([]float64, error) {
	p, err := planSweep(cfgs, false)
	if err != nil {
		return nil, err
	}
	if err := ReplayStreamConcurrent(ctx, s, p.sinks()...); err != nil {
		return nil, err
	}
	stats := p.stats()
	out := make([]float64, len(stats))
	for i, st := range stats {
		out[i] = st.MissRate()
	}
	return out, nil
}
