package exp

import (
	"context"

	"texcache/internal/cache"
	"texcache/internal/report"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

func init() {
	register(Experiment{
		ID: "williams",
		Title: "Caching pathologies of the Williams component-separated " +
			"representation (Section 5.1)",
		Run: runWilliams,
	})
}

// runWilliams compares the Williams representation against the base
// nonblocked representation: the component planes separated by powers of
// two bytes triple the access count and collide in low-associativity
// caches, which is why Section 5.1 rejects it as the baseline.
func runWilliams(ctx context.Context, cfg Config, rep report.Reporter) error {
	rep.BeginTable("williams", []report.Column{
		{Name: "scene", Head: "%-8s", Cell: "%-8s"},
		{Name: "layout", Head: " %-12s", Cell: " %-12s"},
		{Name: "accesses", Head: " %10s", Cell: " %10d"},
		{Name: "DM miss%", Head: " %12s", Cell: " %11.2f%%"},
		{Name: "2-way miss%", Head: " %12s", Cell: " %11.2f%%"},
		{Name: "FA miss%", Head: " %12s", Cell: " %11.2f%%"},
	})
	for _, name := range cfg.sceneList("goblet", "guitar") {
		for _, spec := range []texture.LayoutSpec{
			{Kind: texture.NonBlockedKind},
			{Kind: texture.WilliamsKind},
		} {
			tr, err := traceScene(ctx, cfg, name, spec, scenes.DefaultTraversal(name))
			if err != nil {
				return err
			}
			var cfgs []cache.Config
			for _, ways := range []int{1, 2, 0} {
				cfgs = append(cfgs, cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Ways: ways})
			}
			row, err := cache.MissRatesGroupedStream(ctx, tr, cfgs)
			if err != nil {
				return err
			}
			rep.Row(name, spec.Kind, tr.Len(), 100*row[0], 100*row[1], 100*row[2])
		}
	}
	rep.Note("")
	rep.Note("%s", "paper: the Williams layout needs three accesses per texel and its")
	rep.Note("%s", "power-of-two component strides conflict in the cache")
	return nil
}
