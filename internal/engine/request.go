// Request-centric entry point: RunRequest executes one api.ExperimentRequest,
// the single description of a unit of work every binary and the library
// facade construct. Each request kind becomes a list of jobs for the one
// scheduler (runJobs): the experiments of a batch, one sweep, one
// architecture comparison, or one job per grid trace group. Sweeps and
// architecture comparisons render their (scene, scale, layout,
// traversal) stream through the same trace provider — so identical
// requests coalesce onto one render — and run the requested cache
// configurations against it.
package engine

import (
	"context"

	"texcache/internal/api"
	"texcache/internal/arch"
	"texcache/internal/cache"
	"texcache/internal/exp"
	"texcache/internal/report"
)

// SweepID is the Result.ID (and report table id) of sweep-kind requests.
const SweepID = "sweep"

// ArchID is the Result.ID (and report table id) of architecture-kind
// requests.
const ArchID = "architecture"

// RunRequest executes req, normalized and validated, and streams results
// exactly as Run does. The request must already have passed
// api.Validate; RunRequest re-validates cheaply and fails fast with the
// typed *api.Error otherwise.
func (e *Engine) RunRequest(ctx context.Context, req api.ExperimentRequest) (<-chan Result, error) {
	req = req.Normalized()
	if err := api.Validate(req); err != nil {
		return nil, err
	}
	if req.Kind() == api.KindExperiments {
		return e.Run(ctx, req.Experiments, req.ExpConfig())
	}
	prov := e.traces()
	cfg := req.ExpConfig()
	var (
		jobs []job
		err  error
	)
	switch req.Kind() {
	case api.KindGrid:
		if jobs, err = gridJobs(req, prov); err != nil {
			return nil, err
		}
	case api.KindArchitecture:
		jobs = []job{{id: ArchID, title: "texture-unit architecture comparison: " + req.Scene,
			timer: "arch_request",
			run: func(ctx context.Context, rep report.Reporter) error {
				return archInto(ctx, req, cfg, prov, rep)
			}}}
	case api.KindSweep:
		// The provider's single-flight keying coalesces identical
		// concurrent sweeps: any number of requests for the same (scene,
		// scale, layout, traversal) cost one render.
		jobs = []job{{id: SweepID, title: "custom cache sweep: " + req.Scene,
			timer: "sweep_request",
			run: func(ctx context.Context, rep report.Reporter) error {
				return sweepInto(ctx, req, cfg, prov, rep)
			}}}
	}
	return e.runJobs(ctx, jobs, nil), nil
}

// sweepColumns lays out the sweep result table: one row per requested
// cache configuration with its classified statistics.
func sweepColumns() []report.Column {
	return []report.Column{
		{Name: "Configuration", Head: "%-36s", Cell: "%-36s"},
		{Name: "Miss rate", Head: "%10s", Cell: "%9.3f%%"},
		{Name: "Accesses", Head: "%12s", Cell: "%12d"},
		{Name: "Misses", Head: "%12s", Cell: "%12d"},
		{Name: "Cold", Head: "%10s", Cell: "%10d"},
		{Name: "Capacity", Head: "%10s", Cell: "%10d"},
		{Name: "Conflict", Head: "%10s", Cell: "%10d"},
	}
}

// archColumns lays out the architecture result table: one row per
// (cache configuration, pipeline) machine with its cycle accounting and
// queue high-water marks.
func archColumns() []report.Column {
	return []report.Column{
		{Name: "Configuration", Head: "%-36s", Cell: "%-36s"},
		{Name: "Pipeline", Head: " %-9s", Cell: " %-9s"},
		{Name: "Cycles", Head: "%12s", Cell: "%12d"},
		{Name: "Stall", Head: "%12s", Cell: "%12d"},
		{Name: "Util", Head: "%8s", Cell: "%7.3f%%"},
		{Name: "Mfrag/s", Head: "%9s", Cell: "%9.1f"},
		{Name: "InFlight", Head: "%9s", Cell: "%9d"},
		{Name: "ROB", Head: "%5s", Cell: "%5d"},
	}
}

// archInto does the architecture work: one trace, one miss timeline per
// cache design point, one cycle simulation per machine, one table. The
// fragment rate is quoted at the paper's 100MHz clock.
func archInto(ctx context.Context, req api.ExperimentRequest, cfg exp.Config, prov exp.TraceProvider, rep report.Reporter) error {
	key := exp.TraceKey{
		Scene:     req.Scene,
		Layout:    req.LayoutSpec(),
		Traversal: req.RasterTraversal(),
	}
	str, err := prov.SceneTrace(ctx, key, cfg.EffectiveScale())
	if err != nil {
		return err
	}
	machines := req.ArchConfigs()
	rep.Note("scene %s at scale %d, %s layout, %d addresses", req.Scene,
		cfg.EffectiveScale(), key.Layout.Kind, str.Len())
	rep.BeginTable(ArchID, archColumns())
	timelines := map[cache.Config]*arch.Timeline{}
	for _, m := range machines {
		if err := ctx.Err(); err != nil {
			return err
		}
		tl, ok := timelines[m.Cache]
		if !ok {
			if tl, err = arch.NewTimeline(m.Cache, str); err != nil {
				return err
			}
			timelines[m.Cache] = tl
		}
		res, err := tl.Simulate(m)
		if err != nil {
			return err
		}
		rep.Row(m.Cache.String(), m.Pipeline.String(), res.TotalCyc, res.StallCyc,
			100*res.Utilization(), res.FragmentsPerSecond(100e6)/1e6,
			res.MaxInFlight, res.MaxReorder)
	}
	return nil
}

// sweepInto does the sweep work: one trace, one grouped replay pass,
// one table.
func sweepInto(ctx context.Context, req api.ExperimentRequest, cfg exp.Config, prov exp.TraceProvider, rep report.Reporter) error {
	key := exp.TraceKey{
		Scene:     req.Scene,
		Layout:    req.LayoutSpec(),
		Traversal: req.RasterTraversal(),
	}
	str, err := prov.SceneTrace(ctx, key, cfg.EffectiveScale())
	if err != nil {
		return err
	}
	cfgs := req.CacheConfigs()
	stats, err := cache.SimulateConfigsGroupedStream(ctx, str, cfgs)
	if err != nil {
		return err
	}
	rep.Note("scene %s at scale %d, %s layout, %d addresses", req.Scene,
		cfg.EffectiveScale(), key.Layout.Kind, str.Len())
	rep.BeginTable(SweepID, sweepColumns())
	for i, s := range stats {
		rep.Row(cfgs[i].String(), 100*s.MissRate(), s.Accesses, s.Misses,
			s.Cold, s.Capacity, s.Conflict)
	}
	return nil
}
