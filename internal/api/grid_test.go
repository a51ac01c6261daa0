package api

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func gridReq() ExperimentRequest {
	return ExperimentRequest{
		Grid: &Grid{
			Scenes:  []string{"town", "flight"},
			Scales:  []int{4, 8},
			Configs: []CacheConfig{{SizeBytes: 2 << 10, LineBytes: 64, Ways: 1}},
		},
	}.Normalized()
}

func TestGridKind(t *testing.T) {
	if k := gridReq().Kind(); k != KindGrid {
		t.Errorf("grid request Kind = %v, want grid", k)
	}
	// Grid wins the kind dispatch even when other fields are set (the
	// validator then rejects the combination).
	r := gridReq()
	r.Scene = "town"
	if k := r.Kind(); k != KindGrid {
		t.Errorf("grid+scene request Kind = %v, want grid", k)
	}
}

// TestValidateGrid drives validateGrid and validateShard through their
// error cases, pinning the field each error names.
func TestValidateGrid(t *testing.T) {
	mut := func(f func(*ExperimentRequest)) ExperimentRequest {
		r := gridReq()
		f(&r)
		return r
	}
	cases := []struct {
		name  string
		req   ExperimentRequest
		field string // empty = valid
	}{
		{name: "valid", req: gridReq()},
		{name: "valid empty axes", req: ExperimentRequest{
			Grid: &Grid{Configs: []CacheConfig{{SizeBytes: 2 << 10, LineBytes: 64, Ways: 1}}},
		}.Normalized()},
		{name: "valid shard", req: mut(func(r *ExperimentRequest) { r.Shard = &Shard{Index: 1, Count: 4} })},
		{name: "shard without grid", req: ExperimentRequest{
			Scene:   "town",
			Configs: []CacheConfig{{SizeBytes: 2 << 10, LineBytes: 64, Ways: 1}},
			Shard:   &Shard{Index: 0, Count: 2},
		}.Normalized(), field: "shard"},
		{name: "grid plus experiments", req: mut(func(r *ExperimentRequest) { r.Experiments = []string{"fig5.2"} }), field: "experiments"},
		{name: "grid plus scene", req: mut(func(r *ExperimentRequest) { r.Scene = "town" }), field: "grid"},
		{name: "grid plus configs", req: mut(func(r *ExperimentRequest) {
			r.Configs = []CacheConfig{{SizeBytes: 2 << 10, LineBytes: 64, Ways: 1}}
		}), field: "grid"},
		{name: "grid plus architecture", req: mut(func(r *ExperimentRequest) { r.Architecture = &Architecture{} }), field: "grid"},
		{name: "bad scene", req: mut(func(r *ExperimentRequest) { r.Grid.Scenes[1] = "nowhere" }), field: "grid.scenes[1]"},
		{name: "bad scale", req: mut(func(r *ExperimentRequest) { r.Grid.Scales = []int{4, 0} }), field: "grid.scales[1]"},
		{name: "bad layout", req: mut(func(r *ExperimentRequest) { r.Grid.Layouts = []Layout{{Kind: "spiral"}} }), field: "grid.layouts[0]"},
		{name: "bad traversal", req: mut(func(r *ExperimentRequest) { r.Grid.Traversals = []Traversal{{Order: "zigzag"}} }), field: "grid.traversals[0]"},
		{name: "no configs", req: mut(func(r *ExperimentRequest) { r.Grid.Configs = nil }), field: "grid.configs"},
		{name: "bad config", req: mut(func(r *ExperimentRequest) {
			r.Grid.Configs = append(r.Grid.Configs, CacheConfig{SizeBytes: 100, LineBytes: 64, Ways: 1})
		}), field: "grid.configs[1]"},
		{name: "unit explosion", req: mut(func(r *ExperimentRequest) {
			r.Grid.Scales = make([]int, 0, MaxGridUnits)
			for i := 0; i < MaxGridUnits; i++ {
				r.Grid.Scales = append(r.Grid.Scales, i+1)
			}
		}), field: "grid"},
		{name: "shard zero count", req: mut(func(r *ExperimentRequest) { r.Shard = &Shard{Index: 0, Count: 0} }), field: "shard.count"},
		{name: "shard negative index", req: mut(func(r *ExperimentRequest) { r.Shard = &Shard{Index: -1, Count: 2} }), field: "shard.index"},
		{name: "shard index at count", req: mut(func(r *ExperimentRequest) { r.Shard = &Shard{Index: 2, Count: 2} }), field: "shard.index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.req)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("Validate = %v, want *api.Error naming %q", err, tc.field)
			}
			if ae.Field != tc.field {
				t.Errorf("error field = %q, want %q", ae.Field, tc.field)
			}
		})
	}
}

// TestValidateGridUnitOverflow builds a grid whose axis lengths
// multiply to exactly 2^64 units; on the wire it is a body of about
// 800KB, under texserve's 1MB limit. A unit count that wrapped around
// to 0 would pass the MaxGridUnits cap.
func TestValidateGridUnitOverflow(t *testing.T) {
	g := Grid{
		Scenes:     make([]string, 1<<15),
		Scales:     make([]int, 1<<17),
		Layouts:    make([]Layout, 1<<12),
		Traversals: make([]Traversal, 1<<13),
		Configs:    make([]CacheConfig, 1<<7),
	}
	for i := range g.Scenes {
		g.Scenes[i] = "town"
	}
	for i := range g.Scales {
		g.Scales[i] = 8
	}
	for i := range g.Layouts {
		g.Layouts[i] = Layout{Kind: "blocked", BlockW: 8}
	}
	for i := range g.Traversals {
		g.Traversals[i] = Traversal{Order: "hilbert"}
	}
	for i := range g.Configs {
		g.Configs[i] = CacheConfig{SizeBytes: 2 << 10, LineBytes: 64, Ways: 1}
	}
	var ae *Error
	if err := Validate(ExperimentRequest{Grid: &g}.Normalized()); !errors.As(err, &ae) || ae.Field != "grid" {
		t.Fatalf("Validate of a 2^64-unit grid = %v, want a grid error", err)
	}
}

// TestGridWireJSON pins the grid/shard wire encoding: field names,
// omitted defaults, and a round trip through the HTTP body form.
func TestGridWireJSON(t *testing.T) {
	r := gridReq()
	r.Shard = &Shard{Index: 1, Count: 4}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"grid":{`, `"scenes":["town","flight"]`, `"scales":[4,8]`,
		`"configs":[{`, `"shard":{"index":1,"count":4}`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("wire form %s missing %s", b, want)
		}
	}
	for _, absent := range []string{`"layouts"`, `"traversals"`, `"scene"`} {
		if strings.Contains(string(b), absent) {
			t.Errorf("wire form %s should omit %s", b, absent)
		}
	}
	var back ExperimentRequest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind() != KindGrid || back.Shard == nil || back.Shard.Index != 1 || back.Shard.Count != 4 {
		t.Errorf("round trip = kind %v shard %+v", back.Kind(), back.Shard)
	}
	if err := Validate(back.Normalized()); err != nil {
		t.Errorf("round-tripped request invalid: %v", err)
	}
}
