// Grid-kind requests: the engine enumerates the design-space
// cross-product through internal/shard, runs one job per trace group on
// the shared scheduler, and emits one result per group whose rows are
// keyed by content-addressed unit tags. A Shard selection on the request
// restricts the run to that worker's trace-affine slice; results keep
// their slice-local indexes, so StreamNDJSON emits each worker's groups
// in increasing global order and the coordinator's k-way merge can
// reassemble the canonical stream.
package engine

import (
	"context"
	"fmt"

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

// gridJobs enumerates a grid-kind request and takes this shard's slice:
// one job per trace group, indexed by slice position so the NDJSON
// stream orders by increasing global trace index.
func gridJobs(req api.ExperimentRequest, prov exp.TraceProvider) ([]job, error) {
	groups, err := shard.Enumerate(*req.Grid, req.Scale)
	if err != nil {
		return nil, err
	}
	sl := shard.Slice{Count: 1}
	if req.Shard != nil {
		sl = shard.Slice{Index: req.Shard.Index, Count: req.Shard.Count}
	}
	reg := obs.Default().Sub("shard")
	tracesC := reg.Counter("trace_groups")
	unitsC := reg.Counter("units")
	mine := shard.Assigned(groups, sl)
	jobs := make([]job, len(mine))
	for i, g := range mine {
		jobs[i] = job{id: g.Tag(), title: gridTitle(g), timer: "grid_group",
			run: func(ctx context.Context, rep report.Reporter) error {
				tracesC.Inc()
				return gridGroupInto(ctx, g, prov, rep, unitsC)
			}}
	}
	return jobs, nil
}

// gridTitle renders a group's human-readable title for text output.
func gridTitle(g shard.TraceGroup) string {
	return fmt.Sprintf("grid trace %s: scene %s at scale %d", g.Tag(), g.TK.Scene, g.Scale)
}

// gridGroupInto does one trace group's work: render (or load) the
// trace, then answer every unit's configuration from one grouped pass
// over it.
func gridGroupInto(ctx context.Context, g shard.TraceGroup, prov exp.TraceProvider, rep report.Reporter, unitsC *obs.Counter) error {
	str, err := prov.SceneTrace(ctx, g.TK, g.Scale)
	if err != nil {
		return err
	}
	rep.Note("scene %s at scale %d, %s layout, %d addresses", g.TK.Scene,
		g.Scale, g.TK.Layout.Kind, str.Len())
	rep.BeginTable(shard.GridTableID, gridColumns())

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
		u := g.Units[j]
		rep.Row(u.Tag(), u.Config.String(), 100*s.MissRate(), s.Accesses,
			s.Misses, s.Cold, s.Capacity, s.Conflict, cost.ConfigCost(u.Config).Total())
	}
	return nil
}
