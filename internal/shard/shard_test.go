package shard

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"texcache/internal/api"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

func twoConfigGrid() api.Grid {
	return api.Grid{
		Scenes: []string{"town", "flight"},
		Scales: []int{4},
		Configs: []api.CacheConfig{
			{SizeBytes: 2 << 10, LineBytes: 64, Ways: 1},
			{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2},
		},
	}
}

// TestEnumerate pins the canonical enumeration: order, indices, scales
// and unit counts.
func TestEnumerate(t *testing.T) {
	groups, err := Enumerate(twoConfigGrid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("Enumerate = %d groups, want 2", len(groups))
	}
	wantScenes := []string{"town", "flight"}
	unitIdx := 0
	for i, g := range groups {
		if g.Index != i {
			t.Errorf("group %d Index = %d", i, g.Index)
		}
		if g.TK.Scene != wantScenes[i] {
			t.Errorf("group %d scene = %q, want %q", i, g.TK.Scene, wantScenes[i])
		}
		if g.Scale != 4 {
			t.Errorf("group %d Scale = %d, want grid scale 4", i, g.Scale)
		}
		if len(g.Units) != 2 {
			t.Fatalf("group %d has %d units, want 2", i, len(g.Units))
		}
		for _, u := range g.Units {
			if u.Index != unitIdx {
				t.Errorf("unit Index = %d, want %d (global, trace-major)", u.Index, unitIdx)
			}
			unitIdx++
		}
	}
}

// TestEnumerateDeterministic pins that enumeration is a pure function of
// the grid: two calls agree exactly, including content keys.
func TestEnumerateDeterministic(t *testing.T) {
	a, err := Enumerate(twoConfigGrid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(twoConfigGrid(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Enumerate is not deterministic across calls")
	}
}

// TestEnumerateDefaults pins the default axes — all scenes, request
// scale, blocked 8x8, per-scene traversal — and that spelling the layout
// default out explicitly produces identical content keys.
func TestEnumerateDefaults(t *testing.T) {
	minimal := api.Grid{Configs: []api.CacheConfig{{SizeBytes: 2 << 10, LineBytes: 64, Ways: 1}}}
	groups, err := Enumerate(minimal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(scenes.Names()) {
		t.Fatalf("default grid = %d groups, want one per scene (%d)", len(groups), len(scenes.Names()))
	}
	for i, g := range groups {
		if g.TK.Scene != scenes.Names()[i] {
			t.Errorf("group %d scene = %q, want %q", i, g.TK.Scene, scenes.Names()[i])
		}
		if g.Scale != api.DefaultScale {
			t.Errorf("group %d Scale = %d, want DefaultScale %d", i, g.Scale, api.DefaultScale)
		}
		if g.TK.Layout != (texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}) {
			t.Errorf("group %d layout = %+v, want blocked 8x8", i, g.TK.Layout)
		}
	}

	explicit := minimal
	explicit.Layouts = []api.Layout{{Kind: "blocked", BlockW: 8}}
	eg, err := Enumerate(explicit, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range groups {
		if eg[i].Key != groups[i].Key {
			t.Errorf("explicit blocked-8x8 key %q != default key %q: content addressing must resolve defaults", eg[i].Key, groups[i].Key)
		}
		if eg[i].Units[0].Key != groups[i].Units[0].Key {
			t.Errorf("unit keys differ between explicit and default layout spelling")
		}
	}
}

// TestAssigned pins the trace-affine modulo partition: slices are
// disjoint, cover everything, preserve order, and {i, 1} is the whole
// grid.
func TestAssigned(t *testing.T) {
	groups := make([]TraceGroup, 7)
	for i := range groups {
		groups[i] = TraceGroup{Index: i, Key: fmt.Sprintf("%012x", i)}
	}
	if got := Assigned(groups, Slice{Index: 0, Count: 1}); len(got) != len(groups) {
		t.Errorf("Slice{0,1} = %d groups, want all %d", len(got), len(groups))
	}
	const n = 3
	seen := map[int]int{}
	for i := 0; i < n; i++ {
		part := Assigned(groups, Slice{Index: i, Count: n})
		last := -1
		for _, g := range part {
			if g.Index%n != i {
				t.Errorf("slice %d got group %d", i, g.Index)
			}
			if g.Index <= last {
				t.Errorf("slice %d out of order: %d after %d", i, g.Index, last)
			}
			last = g.Index
			seen[g.Index]++
		}
	}
	for i := range groups {
		if seen[i] != 1 {
			t.Errorf("group %d assigned %d times, want exactly once", i, seen[i])
		}
	}
}

// TestTraceTags pins the tag rendering and its parse inverse.
func TestTraceTags(t *testing.T) {
	g := TraceGroup{Index: 3, Key: "9c41bb07e2aa"}
	if g.Tag() != "t00003-9c41bb07e2aa" {
		t.Errorf("Tag = %q", g.Tag())
	}
	idx, err := ParseTraceTag(g.Tag())
	if err != nil || idx != 3 {
		t.Errorf("ParseTraceTag(%q) = %d, %v", g.Tag(), idx, err)
	}
	u := Unit{Index: 7, Key: "3f2a90c1d44e"}
	if u.Tag() != "u00007-3f2a90c1d44e" {
		t.Errorf("unit Tag = %q", u.Tag())
	}
	for _, bad := range []string{"", "pareto", "x00003-9c41bb07e2aa", "t-1"} {
		if _, err := ParseTraceTag(bad); err == nil {
			t.Errorf("ParseTraceTag(%q) = nil error", bad)
		}
	}
}

// TestFrontier pins the non-dominated filter: dominated points drop,
// exact ties survive, output is cost-sorted.
func TestFrontier(t *testing.T) {
	pt := func(unit string, miss, acc uint64, cost int64) Point {
		return Point{Unit: unit, Misses: miss, Accesses: acc, Cost: cost}
	}
	pts := []Point{
		pt("a", 50, 1000, 100), // frontier: cheapest
		pt("b", 30, 1000, 200), // frontier: cheaper than c, worse miss
		pt("c", 10, 1000, 400), // frontier: best miss
		pt("d", 40, 1000, 300), // dominated by b (less cost, fewer misses)
		pt("e", 30, 1000, 200), // exact tie with b: kept
		pt("f", 50, 1000, 150), // dominated by a on cost at equal miss
	}
	f := Frontier(pts)
	var units []string
	for _, p := range f {
		units = append(units, p.Unit)
	}
	if got := strings.Join(units, ","); got != "a,b,e,c" {
		t.Errorf("Frontier = %s, want a,b,e,c", got)
	}
}

// TestCollectorAndMerge feeds hand-built worker streams through the
// collector and merge: canonical order out, duplicate and missing
// groups rejected.
func TestCollectorAndMerge(t *testing.T) {
	row := func(trace string, unit string, miss, acc float64, cost int64) string {
		return fmt.Sprintf(`{"exp":%q,"type":"row","table":"grid","values":[%q,"cfg",%g,%g,%g,10,0,0,%d]}`,
			trace, unit, 100*miss/acc, acc, miss, cost)
	}
	t0, t1, t2 := "t00000-aaaaaaaaaaaa", "t00001-bbbbbbbbbbbb", "t00002-cccccccccccc"
	// Worker 0 owns groups 0 and 2; worker 1 owns group 1.
	w0 := row(t0, "u00000-x", 50, 1000, 100) + "\n" + row(t2, "u00004-x", 10, 1000, 300) + "\n"
	w1 := row(t1, "u00002-x", 30, 1000, 200) + "\n"

	var buf bytes.Buffer
	col := NewCollector()
	w := io.MultiWriter(&buf, col)
	if err := MergeStreams(w, []io.Reader{strings.NewReader(w0), strings.NewReader(w1)}, 3); err != nil {
		t.Fatal(err)
	}
	want := row(t0, "u00000-x", 50, 1000, 100) + "\n" + row(t1, "u00002-x", 30, 1000, 200) + "\n" + row(t2, "u00004-x", 10, 1000, 300) + "\n"
	if buf.String() != want {
		t.Errorf("merged stream:\n%s\nwant:\n%s", buf.String(), want)
	}
	if got := strings.Join(col.Traces(), ","); got != t0+","+t1+","+t2 {
		t.Errorf("collector traces = %s", got)
	}
	if pts := col.Points(t1); len(pts) != 1 || pts[0].Misses != 30 || pts[0].Cost != 200 {
		t.Errorf("collector points for %s = %+v", t1, pts)
	}

	// Duplicate group: both streams claim group 0.
	err := MergeStreams(io.Discard, []io.Reader{strings.NewReader(w0), strings.NewReader(w0)}, 3)
	if err == nil || !strings.Contains(err.Error(), "more than one stream") {
		t.Errorf("duplicate merge error = %v", err)
	}
	// Missing group: expected 3, got 2.
	err = MergeStreams(io.Discard, []io.Reader{strings.NewReader(w0)}, 3)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing-group merge error = %v", err)
	}
	// Count mismatch at the tail.
	err = MergeStreams(io.Discard, []io.Reader{strings.NewReader(w0), strings.NewReader(w1)}, 4)
	if err == nil || !strings.Contains(err.Error(), "want 4") {
		t.Errorf("count mismatch merge error = %v", err)
	}
}

// TestCollectorFrontierOutput pins the appended frontier lines: stamped
// "exp":"pareto", per trace in stream order, dominated rows absent.
func TestCollectorFrontierOutput(t *testing.T) {
	col := NewCollector()
	rows := []string{
		`{"exp":"t00000-aaaaaaaaaaaa","type":"note","text":"ignored"}`,
		`{"exp":"t00000-aaaaaaaaaaaa","type":"row","table":"grid","values":["u00000-x","cheap",5,1000,50,10,0,0,100]}`,
		`{"exp":"t00000-aaaaaaaaaaaa","type":"row","table":"grid","values":["u00001-x","dominated",5,1000,50,10,0,0,200]}`,
		`{"exp":"t00000-aaaaaaaaaaaa","type":"row","table":"grid","values":["u00002-x","best",1,1000,10,10,0,0,400]}`,
	}
	if _, err := col.Write([]byte(strings.Join(rows, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := col.WriteFrontier(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, `"exp":"pareto"`) {
		t.Errorf("frontier output not stamped pareto:\n%s", s)
	}
	if !strings.Contains(s, `"u00000-x"`) || !strings.Contains(s, `"u00002-x"`) {
		t.Errorf("frontier missing non-dominated units:\n%s", s)
	}
	if strings.Contains(s, `"u00001-x"`) {
		t.Errorf("dominated unit leaked into frontier:\n%s", s)
	}
}
