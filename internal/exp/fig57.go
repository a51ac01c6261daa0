package exp

import (
	"context"
	"fmt"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/report"
	"texcache/internal/texture"
)

func init() {
	register(Experiment{
		ID: "fig5.7",
		Title: "Effect of cache associativity on conflict misses " +
			"(8x8 blocks, 128B lines; Goblet-horizontal, Town-vertical)",
		Run: runFig57,
		Needs: func(cfg Config) []TraceKey {
			var keys []TraceKey
			for _, sc := range fig57Scenes {
				if containsScene(cfg, sc.name) {
					keys = append(keys, TraceKey{Scene: sc.name, Layout: blocked8(),
						Traversal: raster.Traversal{Order: sc.dir}})
				}
			}
			return keys
		},
	})
	register(Experiment{
		ID: "fig5.7nb",
		Title: "Associativity needed without blocking (Goblet, nonblocked " +
			"representation, 128B lines)",
		Run: runFig57NB,
		Needs: func(cfg Config) []TraceKey {
			return []TraceKey{{Scene: "goblet",
				Layout:    texture.LayoutSpec{Kind: texture.NonBlockedKind},
				Traversal: raster.Traversal{Order: raster.RowMajor}}}
		},
	})
}

// assocWays is the associativity sweep of Figure 5.7: direct mapped,
// 2/4/8-way, fully associative.
var assocWays = []int{1, 2, 4, 8, 0}

func assocLabel(ways int) string {
	switch ways {
	case 0:
		return "fully-assoc"
	case 1:
		return "direct"
	default:
		return fmt.Sprintf("%d-way", ways)
	}
}

// fig57Scenes pairs each figure panel with its rasterization direction.
var fig57Scenes = []struct {
	name string
	dir  raster.Order
}{{"goblet", raster.RowMajor}, {"town", raster.ColumnMajor}}

// runAssocSweep prints miss rate vs cache size for each associativity,
// replaying the trace through the whole (ways x size) grid in one
// concurrent pass.
func runAssocSweep(ctx context.Context, rep report.Reporter, tr cache.AddrStream, lineBytes int) error {
	var cfgs []cache.Config
	for _, ways := range assocWays {
		for _, size := range curveSizes() {
			cfgs = append(cfgs, cache.Config{SizeBytes: size, LineBytes: lineBytes, Ways: ways})
		}
	}
	rates, err := cache.MissRatesGroupedStream(ctx, tr, cfgs)
	if err != nil {
		return err
	}
	per := len(curveSizes())
	for i, ways := range assocWays {
		curveRow(rep, assocLabel(ways), rates[i*per:(i+1)*per])
	}
	return nil
}

// runFig57 reproduces Figure 5.7. Expected shapes: for Goblet, direct
// mapped is notably worse but 2-way already matches fully associative
// (conflicts are between adjacent Mip levels, and trilinear touches at
// most two); for Town-vertical, a gap remains between 2-way and fully
// associative because vertically-traversed upright textures conflict
// between blocks within one 2D array.
func runFig57(ctx context.Context, cfg Config, rep report.Reporter) error {
	const lineBytes = 128
	for _, sc := range fig57Scenes {
		if !containsScene(cfg, sc.name) {
			continue
		}
		tr, err := traceScene(ctx, cfg, sc.name, blocked8(), raster.Traversal{Order: sc.dir})
		if err != nil {
			return err
		}
		rep.Note("--- %s (%s), blocked 8x8, 128B lines ---", sc.name, sc.dir)
		beginCurve(rep, "assoc-"+sc.name, "associativity")
		if err := runAssocSweep(ctx, rep, tr, lineBytes); err != nil {
			return err
		}
		rep.Note("")
	}
	rep.Note("%s", "paper: goblet 2-way == fully associative; town keeps a 2-way vs FA gap")
	return nil
}

// runFig57NB reproduces the Section 5.3.3 claim that without blocking,
// the Goblet scene needs eight-way associativity to match the fully
// associative miss rates at small cache sizes (neighboring rows of the
// power-of-two-wide arrays conflict).
func runFig57NB(ctx context.Context, cfg Config, rep report.Reporter) error {
	tr, err := traceScene(ctx, cfg, "goblet",
		texture.LayoutSpec{Kind: texture.NonBlockedKind}, raster.Traversal{Order: raster.RowMajor})
	if err != nil {
		return err
	}
	rep.Note("%s", "--- goblet (horizontal), NONBLOCKED, 128B lines ---")
	beginCurve(rep, "assoc-nonblocked", "associativity")
	if err := runAssocSweep(ctx, rep, tr, 128); err != nil {
		return err
	}
	rep.Note("")
	rep.Note("%s", "paper: with the nonblocked representation an 8-way cache is required to")
	rep.Note("%s", "match fully-associative miss rates among the small cache sizes")
	return nil
}
