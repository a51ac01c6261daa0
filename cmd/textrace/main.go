// Command textrace records, saves, inspects and replays texel address
// traces — the raw material of the study. A saved trace can be replayed
// through arbitrary cache configurations without re-rendering.
//
// Usage:
//
//	textrace record -scene goblet -scale 4 -layout blocked -block 8 -o goblet.trace
//	textrace info goblet.trace
//	textrace sim -size 32768 -line 128 -ways 2 goblet.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"texcache/internal/cache"
	"texcache/internal/raster"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "sim":
		err = sim(os.Args[2:])
	case "locate":
		err = locate(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "textrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  textrace record -scene <name> [-scale N] [-layout kind] [-block N] [-pad N] [-tile N] [-order dir] -o <file>
  textrace info <file>
  textrace sim [-size N] [-line N] [-ways N] <file>
  textrace locate -scene <name> [-scale N] [-layout kind] [-block N] [-pad N] <addr>...`)
}

func parseLayout(kind string, block, pad int) (texture.LayoutSpec, error) {
	switch kind {
	case "nonblocked":
		return texture.LayoutSpec{Kind: texture.NonBlockedKind}, nil
	case "blocked":
		return texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: block}, nil
	case "padded":
		return texture.LayoutSpec{Kind: texture.PaddedBlockedKind, BlockW: block, PadBlocks: pad}, nil
	case "williams":
		return texture.LayoutSpec{Kind: texture.WilliamsKind}, nil
	default:
		return texture.LayoutSpec{}, fmt.Errorf("unknown layout %q", kind)
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	scene := fs.String("scene", "goblet", "scene: "+strings.Join(scenes.Names(), ", "))
	scale := fs.Int("scale", 4, "resolution divisor")
	layout := fs.String("layout", "blocked", "layout: nonblocked, blocked, padded, williams")
	block := fs.Int("block", 8, "block width in texels")
	pad := fs.Int("pad", 4, "pad blocks per row (padded layout)")
	tile := fs.Int("tile", 0, "screen tile size in pixels (0 = untiled)")
	order := fs.String("order", "", "horizontal or vertical (default: scene's)")
	out := fs.String("o", "", "output trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	s, err := scenes.ByNameChecked(*scene, *scale)
	if err != nil {
		return err
	}
	spec, err := parseLayout(*layout, *block, *pad)
	if err != nil {
		return err
	}
	trav := s.DefaultTraversal()
	switch *order {
	case "horizontal":
		trav.Order = raster.RowMajor
	case "vertical":
		trav.Order = raster.ColumnMajor
	case "":
	default:
		return fmt.Errorf("unknown order %q", *order)
	}
	trav.TileW, trav.TileH = *tile, *tile

	tr, r, err := s.Trace(spec, trav)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := tr.WriteTo(f)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses (%d textured fragments) to %s (%d bytes, %.2f bits/access)\n",
		tr.Len(), r.Stats.FragmentsTextured, *out, n, 8*float64(n)/float64(tr.Len()))
	return nil
}

// locate resolves raw trace addresses back to (texture, level, texel)
// under the same scene and layout parameters the trace was recorded with.
func locate(args []string) error {
	fs := flag.NewFlagSet("locate", flag.ExitOnError)
	scene := fs.String("scene", "goblet", "scene the trace was recorded from")
	scale := fs.Int("scale", 4, "resolution divisor used at record time")
	layout := fs.String("layout", "blocked", "layout used at record time")
	block := fs.Int("block", 8, "block width used at record time")
	pad := fs.Int("pad", 4, "pad blocks used at record time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("locate: expected at least one address")
	}
	s, err := scenes.ByNameChecked(*scene, *scale)
	if err != nil {
		return err
	}
	spec, err := parseLayout(*layout, *block, *pad)
	if err != nil {
		return err
	}
	layouts, err := s.Layouts(spec)
	if err != nil {
		return err
	}
	for _, arg := range fs.Args() {
		addr, err := strconv.ParseUint(arg, 0, 64)
		if err != nil {
			return fmt.Errorf("locate: bad address %q: %v", arg, err)
		}
		found := false
		for texID, l := range layouts {
			if addr < l.Base() || addr >= l.Base()+l.SizeBytes() {
				continue
			}
			found = true
			loc, ok := l.(texture.Locator)
			if !ok {
				fmt.Printf("%d: texture %d (%s), texel unresolvable\n", addr, texID, l.Name())
				break
			}
			if level, tu, tv, comp, ok := loc.Locate(addr); ok {
				fmt.Printf("%d: texture %d level %d texel (%d,%d) component %d\n",
					addr, texID, level, tu, tv, comp)
			} else {
				fmt.Printf("%d: texture %d (%s), padding\n", addr, texID, l.Name())
			}
			break
		}
		if !found {
			fmt.Printf("%d: outside all textures\n", addr)
		}
	}
	return nil
}

func loadTrace(path string) (*cache.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cache.ReadTrace(f)
}

func info(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("info: expected one trace file")
	}
	tr, err := loadTrace(args[0])
	if err != nil {
		return err
	}
	var lo, hi uint64 = ^uint64(0), 0
	for _, a := range tr.Addrs {
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	sd := cache.NewStackDist(32)
	cache.ReplayStream(tr, sd)
	fmt.Printf("accesses:       %d\n", tr.Len())
	fmt.Printf("address range:  [%d, %d] (%.2f MB span)\n", lo, hi, float64(hi-lo)/(1<<20))
	fmt.Printf("distinct 32B lines: %d (%.2f MB touched)\n",
		sd.DistinctLines(), float64(sd.DistinctLines())*32/(1<<20))
	fmt.Printf("cold miss rate (32B lines): %.2f%%\n",
		100*float64(sd.ColdMisses())/float64(sd.Accesses()))
	fmt.Println("fully-associative miss rates:")
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10} {
		fmt.Printf("  %6s: %.2f%%\n", cache.FormatSize(size), 100*sd.MissRateAt(size))
	}
	return nil
}

func sim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	size := fs.Int("size", 32<<10, "cache size in bytes")
	line := fs.Int("line", 128, "line size in bytes")
	ways := fs.Int("ways", 2, "associativity (0 = fully associative)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sim: expected one trace file")
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg := cache.Config{SizeBytes: *size, LineBytes: *line, Ways: *ways}
	if err := cfg.Validate(); err != nil {
		return err
	}
	cc := cache.NewClassifying(cfg)
	cache.ReplayStream(tr, cc.Sink())
	s := cc.Stats()
	fmt.Printf("%v: %d accesses, %d misses (%.2f%%)\n", cfg, s.Accesses, s.Misses, 100*s.MissRate())
	fmt.Printf("  cold %.2f%%  capacity %.2f%%  conflict %.2f%%\n",
		100*float64(s.Cold)/float64(s.Accesses),
		100*float64(s.Capacity)/float64(s.Accesses),
		100*float64(s.Conflict)/float64(s.Accesses))
	fmt.Printf("  memory traffic: %.2f MB per frame\n", float64(s.BytesFetched(*line))/(1<<20))
	return nil
}
