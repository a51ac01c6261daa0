// Grid-kind requests: the engine enumerates the design-space
// cross-product through internal/shard, schedules one unit of work per
// trace group on the worker pool, and emits one result per group whose
// rows are keyed by content-addressed unit tags. A Shard selection on
// the request restricts the run to that worker's trace-affine slice;
// results keep their slice-local indexes, so StreamNDJSON emits each
// worker's groups in increasing global order and the coordinator's
// k-way merge can reassemble the canonical stream.
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"texcache/internal/api"
	"texcache/internal/cache"
	"texcache/internal/cost"
	"texcache/internal/exp"
	"texcache/internal/obs"
	"texcache/internal/report"
	"texcache/internal/shard"
)

// gridColumns lays out the grid result table: one row per (trace,
// config) unit with its classified statistics and hardware cost.
func gridColumns() []report.Column {
	return []report.Column{
		{Name: "Unit", Head: "%-20s", Cell: "%-20s"},
		{Name: "Configuration", Head: " %-36s", Cell: " %-36s"},
		{Name: "Miss rate", Head: "%10s", Cell: "%9.3f%%"},
		{Name: "Accesses", Head: "%12s", Cell: "%12d"},
		{Name: "Misses", Head: "%12s", Cell: "%12d"},
		{Name: "Cold", Head: "%10s", Cell: "%10d"},
		{Name: "Capacity", Head: "%10s", Cell: "%10d"},
		{Name: "Conflict", Head: "%10s", Cell: "%10d"},
		{Name: "Cost", Head: "%12s", Cell: "%12d"},
	}
}

// runGrid executes a grid-kind request: enumerate, take this shard's
// slice, and run each trace group through the worker pool. One Result
// per group, indexed by slice position so the NDJSON stream orders by
// increasing global trace index.
func (e *Engine) runGrid(ctx context.Context, req api.ExperimentRequest) (<-chan Result, error) {
	groups, err := shard.Enumerate(*req.Grid, req.Scale)
	if err != nil {
		return nil, err
	}
	sl := shard.Slice{Count: 1}
	if req.Shard != nil {
		sl = shard.Slice{Index: req.Shard.Index, Count: req.Shard.Count}
	}
	mine := shard.Assigned(groups, sl)
	prov, err := e.traces()
	if err != nil {
		return nil, err
	}
	var pruner *shard.Pruner
	if e.opts.Prune {
		pruner = shard.NewPruner()
		if e.opts.FrontierFile != "" {
			if err := pruner.AttachFile(e.opts.FrontierFile); err != nil {
				return nil, err
			}
		}
	}

	reg := obs.Default().Sub("shard")
	tracesC := reg.Counter("trace_groups")
	unitsC := reg.Counter("units")
	prunedC := reg.Counter("pruned")

	out := make(chan Result, len(mine))
	sem := make(chan struct{}, e.opts.Workers)
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for i, g := range mine {
			wg.Add(1)
			go func(i int, g shard.TraceGroup) {
				defer wg.Done()
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-ctx.Done():
					out <- Result{Index: i, ID: g.Tag(), Title: gridTitle(g), Err: ctx.Err()}
					return
				}
				tracesC.Inc()
				out <- runTraceGroup(ctx, i, g, prov, pruner, unitsC, prunedC)
			}(i, g)
		}
		wg.Wait()
		if pruner != nil {
			pruner.Close()
		}
		obs.Default().Emit("grid.done", "", int64(len(mine)))
	}()
	return out, nil
}

// gridTitle renders a group's human-readable title for text output.
func gridTitle(g shard.TraceGroup) string {
	return fmt.Sprintf("grid trace %s: scene %s at scale %d", g.Tag(), g.TK.Scene, g.Scale)
}

// runTraceGroup runs all of one trace group's units, recording the
// result table.
func runTraceGroup(ctx context.Context, i int, g shard.TraceGroup, prov exp.TraceProvider, pruner *shard.Pruner, unitsC, prunedC *obs.Counter) Result {
	r := Result{Index: i, ID: g.Tag(), Title: gridTitle(g)}
	start := time.Now()
	rec := &report.Recording{}
	r.Err = gridGroupInto(ctx, g, prov, pruner, rec, unitsC, prunedC)
	r.Elapsed = time.Since(start)
	r.Report = rec
	r.Output = rec.Text()
	obs.Default().Sub("engine").Timer("grid_group").Observe(r.Elapsed)
	return r
}

// gridGroupInto does one trace group's work: render (or load) the
// trace, then replay its configs — in a single grouped pass when
// exhaustive, or sequentially with dominance checks when pruning. The
// two replay paths produce bit-identical statistics (pinned by the
// cache package's differential tests), so a unit measured on either
// path contributes the same row bytes.
func gridGroupInto(ctx context.Context, g shard.TraceGroup, prov exp.TraceProvider, pruner *shard.Pruner, rep report.Reporter, unitsC, prunedC *obs.Counter) error {
	str, err := prov.SceneTrace(ctx, g.TK, g.Scale)
	if err != nil {
		return err
	}
	rep.Note("scene %s at scale %d, %s layout, %d addresses", g.TK.Scene,
		g.Scale, g.TK.Layout.Kind, str.Len())
	rep.BeginTable(shard.GridTableID, gridColumns())

	row := func(u shard.Unit, s cache.Stats, hw int64) {
		rep.Row(u.Tag(), u.Config.String(), 100*s.MissRate(), s.Accesses,
			s.Misses, s.Cold, s.Capacity, s.Conflict, hw)
	}

	if pruner == nil {
		cfgs := make([]cache.Config, len(g.Units))
		for j, u := range g.Units {
			cfgs[j] = u.Config
		}
		stats, err := cache.SimulateConfigsGroupedStream(ctx, str, cfgs)
		if err != nil {
			return err
		}
		for j, s := range stats {
			unitsC.Inc()
			row(g.Units[j], s, cost.ConfigCost(g.Units[j].Config).Total())
		}
		return nil
	}

	// Pruning path: sequential per-config replay so each measurement can
	// tighten the bounds before the next dominance check. Decisions use
	// only same-trace state, so they are deterministic however many
	// groups run concurrently.
	for _, u := range g.Units {
		if err := ctx.Err(); err != nil {
			return err
		}
		hw := cost.ConfigCost(u.Config).Total()
		if by, ok := pruner.Dominated(g.Key, u.Config, hw); ok {
			prunedC.Inc()
			rep.Note("pruned %s (%s, cost %d): dominated by measured %s", u.Tag(), u.Config, hw, by)
			continue
		}
		c, err := cache.TryNewClassifying(u.Config)
		if err != nil {
			return err
		}
		if err := cache.ReplayStreamConcurrent(ctx, str, c.Sink()); err != nil {
			return err
		}
		s := c.Stats()
		pruner.Observe(shard.Point{
			Trace: g.Key, Unit: u.Tag(), Label: u.Config.String(), Config: u.Config,
			Accesses: s.Accesses, Misses: s.Misses, Cold: s.Cold, Cost: hw,
		})
		unitsC.Inc()
		row(u, s, hw)
	}
	return nil
}
