package exp

import (
	"context"
	"fmt"
	"strings"

	"texcache/internal/cost"
	"texcache/internal/report"
	"texcache/internal/scenes"
	"texcache/internal/stats"
	"texcache/internal/texture"
)

func init() {
	register(Experiment{
		ID:    "table4.1",
		Title: "Texture mapping benchmark characteristics",
		Run:   runTable41,
	})
	register(Experiment{
		ID:    "table2.1",
		Title: "Computational costs of the fragment generator phases",
		Run:   runTable21,
	})
	register(Experiment{
		ID:    "locality",
		Title: "Accesses per texel and texture repetition (Section 3.1.2)",
		Run:   runLocality,
	})
	register(Experiment{
		ID:    "runlength",
		Title: "Average texture runlengths (Section 5.2.3)",
		Run:   runRunlength,
	})
}

// characterize renders one scene with the locality collector attached.
func characterize(ctx context.Context, cfg Config, name string) (*scenes.Scene, *stats.Locality, *cost.Counters, *frameInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, nil, err
	}
	s, err := buildScene(ctx, cfg, name)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	loc := stats.NewLocality()
	counters := cost.NewCounters()
	r, err := s.Render(scenes.RenderOptions{
		Layout:    texture.LayoutSpec{Kind: texture.NonBlockedKind},
		Traversal: s.DefaultTraversal(),
		OnAccess:  loc.Record,
		Counters:  counters,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fi := &frameInfo{
		Triangles:    r.Stats.TrianglesIn,
		TexturedTris: r.Stats.TexturedTris,
		Fragments:    r.Stats.FragmentsTextured,
		AvgArea:      safeDiv(r.Stats.TriangleAreaSum, float64(r.Stats.TexturedTris)),
		AvgW:         safeDiv(r.Stats.TriangleWidthSum, float64(r.Stats.TexturedTris)),
		AvgH:         safeDiv(r.Stats.TriangleHeightSum, float64(r.Stats.TexturedTris)),
	}
	return s, loc, counters, fi, nil
}

type frameInfo struct {
	Triangles    int
	TexturedTris int
	Fragments    uint64
	AvgArea      float64
	AvgW, AvgH   float64
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runTable41(ctx context.Context, cfg Config, rep report.Reporter) error {
	rep.BeginTable("benchmarks", []report.Column{
		{Name: "Scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "Resolution", Head: " %-11s", Cell: " %s"},
		{Name: "Tris", Head: " %6s", Cell: " %6d"},
		{Name: "AvgArea", Head: " %8s", Cell: " %8.0f"},
		{Name: "AvgW", Head: " %6s", Cell: " %6.0f"},
		{Name: "AvgH", Head: " %6s", Cell: " %6.0f"},
		{Name: "Texs", Head: " %5s", Cell: " %5d"},
		{Name: "Store(MB)", Head: " %9s", Cell: " %9.1f"},
		{Name: "Used(MB)", Head: " %9s", Cell: " %9.2f"},
		{Name: "Used%", Head: " %6s", Cell: " %5.0f%%"},
		{Name: "PixTex(M)", Head: " %9s", Cell: " %9.2f"},
	})
	for _, name := range cfg.sceneList(scenes.Names()...) {
		s, loc, _, fi, err := characterize(ctx, cfg, name)
		if err != nil {
			return err
		}
		storage := float64(s.TextureStorageBytes()) / (1 << 20)
		used := float64(loc.TextureUsedBytes()) / (1 << 20)
		rep.Row(s.Name, fmt.Sprintf("%4dx%-6d", s.Width, s.Height),
			fi.Triangles, fi.AvgArea, fi.AvgW, fi.AvgH,
			len(s.Mips), storage, used, 100*used/storage,
			float64(fi.Fragments)/1e6)
	}
	return nil
}

func runTable21(ctx context.Context, cfg Config, rep report.Reporter) error {
	for _, name := range cfg.sceneList("goblet") {
		_, _, counters, _, err := characterize(ctx, cfg, name)
		if err != nil {
			return err
		}
		rep.Note("--- %s: per-frame operation totals (Table 2.1 unit costs) ---", name)
		var sb strings.Builder
		if err := counters.WriteTable(&sb); err != nil {
			return err
		}
		for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
			rep.Note("%s", line)
		}
	}
	return nil
}

func runLocality(ctx context.Context, cfg Config, rep report.Reporter) error {
	rep.BeginTable("locality", []report.Column{
		{Name: "Scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "lower/texel", Head: " %12s", Cell: " %12.1f"},
		{Name: "upper/texel", Head: " %12s", Cell: " %12.1f"},
		{Name: "bili/texel", Head: " %12s", Cell: " %12.1f"},
		{Name: "repetition", Head: " %11s", Cell: " %11.2f"},
		{Name: "uniqueTexels", Head: " %12s", Cell: " %12d"},
	})
	for _, name := range cfg.sceneList(scenes.Names()...) {
		_, loc, _, _, err := characterize(ctx, cfg, name)
		if err != nil {
			return err
		}
		rep.Row(name,
			loc.AccessesPerTexel(texture.AccessTrilinearLower),
			loc.AccessesPerTexel(texture.AccessTrilinearUpper),
			loc.AccessesPerTexel(texture.AccessBilinear),
			loc.RepetitionFactor(),
			loc.UniqueTexels())
	}
	rep.Note("")
	rep.Note("%s", "paper: lower=4, upper=14, bilinear=18 (avg across scenes);")
	rep.Note("%s", "repetition: town=2.9 guitar=1.7 goblet=1.1 flight=1.0")
	return nil
}

func runRunlength(ctx context.Context, cfg Config, rep report.Reporter) error {
	rep.BeginTable("runlength", []report.Column{
		{Name: "Scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "avg runlength", Head: " %14s", Cell: " %14.0f"},
		{Name: "runs", Head: " %8s", Cell: " %8d"},
	})
	for _, name := range cfg.sceneList("town", "guitar", "flight") {
		_, loc, _, _, err := characterize(ctx, cfg, name)
		if err != nil {
			return err
		}
		rep.Row(name, loc.AverageRunlength(), loc.Runs())
	}
	rep.Note("")
	rep.Note("%s", "paper: town=223629 guitar=553745 flight=562154 (multi-texture scenes)")
	return nil
}
