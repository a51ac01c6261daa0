package main

import (
	"strings"
	"testing"

	"texcache"
)

// TestBuildRequest pins the flag → ExperimentRequest mapping and the
// shared validation path: the same api.Validate that gates texserve
// requests is what exits 2 here.
func TestBuildRequest(t *testing.T) {
	cases := []struct {
		name    string
		f       flags
		stdin   string
		wantErr string // substring of build or validation error; empty = valid
	}{
		{name: "defaults", f: flags{id: "all", scale: 2}},
		{name: "full size", f: flags{id: "fig5.2", scale: 1, workers: 8, renderW: 4}},
		// Scale 0 is the wire form's "use the default" (an omitted JSON
		// field), so it normalizes to the default rather than erroring.
		{name: "zero scale is default", f: flags{id: "all", scale: 0}},
		{name: "negative scale", f: flags{id: "all", scale: -3}, wantErr: "scale"},
		{name: "negative workers", f: flags{id: "all", scale: 2, workers: -1}, wantErr: "workers"},
		{name: "negative render workers", f: flags{id: "all", scale: 2, renderW: -2}, wantErr: "render_workers"},
		{name: "unknown experiment", f: flags{id: "bogus", scale: 2}, wantErr: "unknown experiment"},
		{name: "unknown scene", f: flags{id: "all", scale: 2, scenes: "nowhere"}, wantErr: "unknown scene"},
		{name: "request file plus exp", f: flags{id: "all", scale: 2, requestFile: "-"}, wantErr: "-request"},
		{name: "request file plus arch", f: flags{arch: "both", scale: 2, requestFile: "-"}, wantErr: "-request"},
		{name: "arch request", f: flags{arch: "both", scenes: "goblet", scale: 2}},
		{name: "arch plus exp", f: flags{id: "all", arch: "both", scenes: "goblet", scale: 2}, wantErr: "-arch"},
		{name: "arch multi scene", f: flags{arch: "both", scenes: "town,guitar", scale: 2}, wantErr: "single"},
		{name: "arch no scene", f: flags{arch: "both", scale: 2}, wantErr: "scene"},
		{name: "arch bad pipeline", f: flags{arch: "warp", scenes: "goblet", scale: 2}, wantErr: "architecture.pipeline"},
		{name: "arch bad fifo", f: flags{arch: "both", scenes: "goblet", archFIFO: -1, scale: 2}, wantErr: "architecture.fragment_fifo"},
		{name: "request from stdin", f: flags{scale: 2, requestFile: "-"},
			stdin: `{"scene":"goblet","configs":[{"size_bytes":32768,"line_bytes":128,"ways":2}]}`},
		{name: "bad request json", f: flags{scale: 2, requestFile: "-"},
			stdin: `{"scene":`, wantErr: "parsing"},
		{name: "request bad config", f: flags{scale: 2, requestFile: "-"},
			stdin:   `{"scene":"goblet","configs":[{"size_bytes":100,"line_bytes":128,"ways":2}]}`,
			wantErr: "configs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := buildRequest(tc.f, strings.NewReader(tc.stdin))
			if err == nil {
				err = texcache.ValidateRequest(texcache.NormalizeRequest(req))
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("buildRequest(%+v) = %v, want nil", tc.f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("buildRequest(%+v) = nil error, want one naming %q", tc.f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}

// TestBuildRequestGrid pins the -grid/-shard/-coordinate/-prune flag
// surface: shape errors (malformed -shard syntax, flags without a grid)
// fail locally, range errors (i >= n, n < 1) flow through the same
// shared validator texserve uses, and both exit 2.
func TestBuildRequestGrid(t *testing.T) {
	const grid = `{"scenes":["town"],"configs":[{"size_bytes":2048,"ways":1,"line_bytes":64}]}`
	cases := []struct {
		name    string
		f       flags
		stdin   string
		wantErr string
	}{
		{name: "plain grid", f: flags{gridFile: "-", scale: 2}, stdin: grid},
		{name: "worker slice", f: flags{gridFile: "-", shard: "1/4", scale: 2}, stdin: grid},
		{name: "last slice", f: flags{gridFile: "-", shard: "3/4", scale: 2}, stdin: grid},
		{name: "coordinate", f: flags{gridFile: "-", coordinate: 2, scale: 2}, stdin: grid},
		{name: "prune with frontier", f: flags{gridFile: "-", prune: true, frontier: "f.ndjson", scale: 2}, stdin: grid},
		{name: "shard missing slash", f: flags{gridFile: "-", shard: "2", scale: 2}, stdin: grid, wantErr: "want i/n"},
		{name: "shard non-numeric", f: flags{gridFile: "-", shard: "a/b", scale: 2}, stdin: grid, wantErr: "bad index"},
		{name: "shard non-numeric count", f: flags{gridFile: "-", shard: "0/b", scale: 2}, stdin: grid, wantErr: "bad count"},
		{name: "shard zero count", f: flags{gridFile: "-", shard: "0/0", scale: 2}, stdin: grid, wantErr: "shard.count"},
		{name: "shard negative index", f: flags{gridFile: "-", shard: "-1/2", scale: 2}, stdin: grid, wantErr: "shard.index"},
		{name: "shard index at count", f: flags{gridFile: "-", shard: "2/2", scale: 2}, stdin: grid, wantErr: "shard.index"},
		{name: "shard index past count", f: flags{gridFile: "-", shard: "3/2", scale: 2}, stdin: grid, wantErr: "shard.index"},
		{name: "shard plus coordinate", f: flags{gridFile: "-", shard: "0/2", coordinate: 2, scale: 2}, stdin: grid, wantErr: "mutually exclusive"},
		{name: "shard without grid", f: flags{id: "all", shard: "0/2", scale: 2}, wantErr: "-shard needs a -grid"},
		{name: "coordinate without grid", f: flags{id: "all", coordinate: 2, scale: 2}, wantErr: "-coordinate needs a -grid"},
		{name: "prune without grid", f: flags{id: "all", prune: true, scale: 2}, wantErr: "-prune applies only"},
		{name: "frontier without grid", f: flags{id: "all", frontier: "f.ndjson", scale: 2}, wantErr: "-frontier applies only"},
		{name: "frontier without prune", f: flags{gridFile: "-", frontier: "f.ndjson", scale: 2}, stdin: grid, wantErr: "-frontier requires -prune"},
		{name: "negative coordinate", f: flags{gridFile: "-", coordinate: -1, scale: 2}, stdin: grid, wantErr: "-coordinate"},
		{name: "grid plus exp", f: flags{gridFile: "-", id: "all", scale: 2}, stdin: grid, wantErr: "-grid replaces"},
		{name: "grid plus arch", f: flags{gridFile: "-", arch: "both", scale: 2}, stdin: grid, wantErr: "-grid replaces"},
		{name: "grid plus request", f: flags{gridFile: "-", requestFile: "-", scale: 2}, stdin: grid, wantErr: "-grid replaces"},
		{name: "grid plus scenes", f: flags{gridFile: "-", scenes: "town", scale: 2}, stdin: grid, wantErr: "-grid replaces"},
		{name: "bad grid json", f: flags{gridFile: "-", scale: 2}, stdin: `{"scenes":`, wantErr: "parsing"},
		{name: "grid no configs", f: flags{gridFile: "-", scale: 2}, stdin: `{"scenes":["town"]}`, wantErr: "grid.configs"},
		{name: "grid unknown scene", f: flags{gridFile: "-", scale: 2},
			stdin: `{"scenes":["nowhere"],"configs":[{"size_bytes":2048,"ways":1,"line_bytes":64}]}`, wantErr: "grid.scenes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := buildRequest(tc.f, strings.NewReader(tc.stdin))
			if err == nil {
				err = texcache.ValidateRequest(texcache.NormalizeRequest(req))
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("buildRequest(%+v) = %v, want nil", tc.f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("buildRequest(%+v) = nil error, want one naming %q", tc.f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseShard pins the i/n syntax parser shared by workers and the
// coordinator's spawn loop.
func TestParseShard(t *testing.T) {
	sl, err := parseShard("3/8")
	if err != nil || sl.Index != 3 || sl.Count != 8 {
		t.Fatalf("parseShard(3/8) = %+v, %v", sl, err)
	}
	for _, bad := range []string{"", "3", "/", "x/2", "2/y", "1.5/4"} {
		if _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) = nil error, want parse failure", bad)
		}
	}
}

// TestBuildRequestMapping spot-checks field mapping details.
func TestBuildRequestMapping(t *testing.T) {
	req, err := buildRequest(flags{id: "fig5.2,fig5.7", scale: 4, scenes: "town,guitar"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(req.Experiments, "+"); got != "fig5.2+fig5.7" {
		t.Errorf("Experiments = %q", got)
	}
	if got := strings.Join(req.Scenes, "+"); got != "town+guitar" {
		t.Errorf("Scenes = %q", got)
	}
	if req.Scale != 4 {
		t.Errorf("Scale = %d, want 4", req.Scale)
	}
	ar, err := buildRequest(flags{arch: "prefetch", scenes: "goblet", archFIFO: 16, archLatency: 200, scale: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Scene != "goblet" || len(ar.Scenes) != 0 {
		t.Errorf("arch request scene mapping: Scene=%q Scenes=%v", ar.Scene, ar.Scenes)
	}
	if ar.Architecture == nil || ar.Architecture.Pipeline != "prefetch" ||
		ar.Architecture.FragmentFIFO != 16 || ar.Architecture.FillLatency != 200 {
		t.Errorf("arch request block mapping: %+v", ar.Architecture)
	}
	all, err := buildRequest(flags{id: "all", scale: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Experiments) != 0 {
		t.Errorf("-exp all should leave Experiments empty, got %v", all.Experiments)
	}
}
