package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"texcache/internal/arch"
	"texcache/internal/cache"
	"texcache/internal/exp"
	"texcache/internal/prefetch"
	"texcache/internal/raster"
	"texcache/internal/scenes"
	"texcache/internal/texture"
)

func sweepReq() ExperimentRequest {
	return ExperimentRequest{
		Scene:   "goblet",
		Configs: []CacheConfig{{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}},
	}.Normalized()
}

func TestKind(t *testing.T) {
	if k := (ExperimentRequest{}).Kind(); k != KindExperiments {
		t.Errorf("empty request Kind = %v, want experiments", k)
	}
	if k := (ExperimentRequest{Experiments: []string{"fig5.2"}}).Kind(); k != KindExperiments {
		t.Errorf("experiments request Kind = %v", k)
	}
	for name, r := range map[string]ExperimentRequest{
		"scene":     {Scene: "town"},
		"configs":   {Configs: []CacheConfig{{}}},
		"layout":    {Layout: &Layout{Kind: "blocked"}},
		"traversal": {Traversal: &Traversal{Order: "hilbert"}},
	} {
		if k := r.Kind(); k != KindSweep {
			t.Errorf("%s request Kind = %v, want sweep", name, k)
		}
	}
}

func TestNormalized(t *testing.T) {
	n := ExperimentRequest{}.Normalized()
	if n.V != Version || n.Scale != DefaultScale {
		t.Errorf("Normalized zero = v%d scale %d, want v%d scale %d", n.V, n.Scale, Version, DefaultScale)
	}
	kept := ExperimentRequest{V: 1, Scale: 7}.Normalized()
	if kept.V != 1 || kept.Scale != 7 {
		t.Errorf("Normalized kept = v%d scale %d, want v1 scale 7", kept.V, kept.Scale)
	}
}

// TestValidate drives the one shared validation path through its error
// cases, pinning the field each error names and the HTTP status it maps
// to.
func TestValidate(t *testing.T) {
	mut := func(f func(*ExperimentRequest)) ExperimentRequest {
		r := sweepReq()
		f(&r)
		return r
	}
	cases := []struct {
		name       string
		req        ExperimentRequest
		wantField  string
		wantCode   string
		wantStatus int
	}{
		{name: "experiments default", req: ExperimentRequest{}.Normalized()},
		{name: "experiments named", req: ExperimentRequest{Experiments: []string{"fig5.2"}, Scenes: []string{"town"}}.Normalized()},
		{name: "sweep minimal", req: sweepReq()},
		{name: "sweep full", req: mut(func(r *ExperimentRequest) {
			r.Layout = &Layout{Kind: "6d", BlockW: 8, SuperBytes: 32 << 10}
			r.Traversal = &Traversal{Order: "hilbert"}
			r.Sweep = SweepPerConfig
		})},
		{name: "bad version", req: mut(func(r *ExperimentRequest) { r.V = 9 }),
			wantField: "v", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "negative scale", req: mut(func(r *ExperimentRequest) { r.Scale = -1 }),
			wantField: "scale", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "negative workers", req: mut(func(r *ExperimentRequest) { r.Workers = -1 }),
			wantField: "workers", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad sweep mode", req: mut(func(r *ExperimentRequest) { r.Sweep = "both" }),
			wantField: "sweep", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "unknown experiment", req: ExperimentRequest{Experiments: []string{"bogus"}}.Normalized(),
			wantField: "experiments", wantCode: CodeUnknownExperiment, wantStatus: http.StatusNotFound},
		{name: "unknown scene list", req: ExperimentRequest{Scenes: []string{"nowhere"}}.Normalized(),
			wantField: "scene", wantCode: CodeUnknownScene, wantStatus: http.StatusNotFound},
		{name: "sweep and experiments", req: mut(func(r *ExperimentRequest) { r.Experiments = []string{"fig5.2"} }),
			wantField: "experiments", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "sweep without scene", req: mut(func(r *ExperimentRequest) { r.Scene = "" }),
			wantField: "scene", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "sweep unknown scene", req: mut(func(r *ExperimentRequest) { r.Scene = "nowhere" }),
			wantField: "scene", wantCode: CodeUnknownScene, wantStatus: http.StatusNotFound},
		{name: "sweep without configs", req: mut(func(r *ExperimentRequest) { r.Configs = nil; r.Layout = &Layout{Kind: "blocked", BlockW: 8} }),
			wantField: "configs", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad layout kind", req: mut(func(r *ExperimentRequest) { r.Layout = &Layout{Kind: "spiral"} }),
			wantField: "layout", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad layout spec", req: mut(func(r *ExperimentRequest) { r.Layout = &Layout{Kind: "blocked", BlockW: 3} }),
			wantField: "layout", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad traversal", req: mut(func(r *ExperimentRequest) { r.Traversal = &Traversal{Order: "diagonal"} }),
			wantField: "traversal", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad cache policy", req: mut(func(r *ExperimentRequest) { r.Configs[0].Policy = "mru" }),
			wantField: "configs[0]", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad cache geometry", req: mut(func(r *ExperimentRequest) { r.Configs[0].SizeBytes = 100 }),
			wantField: "configs[0]", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.req)
			if tc.wantCode == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("Validate = %v (%T), want *api.Error", err, err)
			}
			if ae.Code != tc.wantCode || ae.Field != tc.wantField {
				t.Errorf("error code/field = %s/%s, want %s/%s", ae.Code, ae.Field, tc.wantCode, tc.wantField)
			}
			if got := ae.HTTPStatus(); got != tc.wantStatus {
				t.Errorf("HTTPStatus = %d, want %d", got, tc.wantStatus)
			}
			if ae.V != Version {
				t.Errorf("error body V = %d, want %d", ae.V, Version)
			}
		})
	}
}

// TestErrorUnwrap pins the compatibility contract: callers keyed to the
// pre-API typed errors keep working through errors.As.
func TestErrorUnwrap(t *testing.T) {
	var ue *exp.UnknownExperimentError
	err := Validate(ExperimentRequest{Experiments: []string{"bogus"}}.Normalized())
	if !errors.As(err, &ue) || ue.ID != "bogus" {
		t.Errorf("unknown experiment error does not unwrap to *exp.UnknownExperimentError: %v", err)
	}
	var se *scenes.UnknownSceneError
	bad := sweepReq()
	bad.Scene = "nowhere"
	err = Validate(bad)
	if !errors.As(err, &se) || se.Name != "nowhere" {
		t.Errorf("unknown scene error does not unwrap to *scenes.UnknownSceneError: %v", err)
	}
}

func TestWrapError(t *testing.T) {
	ae := WrapError(&exp.UnknownExperimentError{ID: "x"})
	if ae.Code != CodeUnknownExperiment {
		t.Errorf("WrapError(unknown experiment) code = %s", ae.Code)
	}
	if got := WrapError(ae); got != ae {
		t.Errorf("WrapError(*Error) should pass through")
	}
	if code := WrapError(errors.New("boom")).Code; code != CodeInternal {
		t.Errorf("WrapError(opaque) code = %s", code)
	}
}

// TestConversions pins wire → internal mapping for each enum family.
func TestConversions(t *testing.T) {
	spec, err := (Layout{Kind: "padded", BlockW: 8, PadBlocks: 1}).Spec()
	if err != nil || spec.Kind != texture.PaddedBlockedKind || spec.BlockW != 8 || spec.PadBlocks != 1 {
		t.Errorf("Layout.Spec = %+v, %v", spec, err)
	}
	// Round trip through LayoutFromSpec for every kind name.
	for _, kind := range []string{"nonblocked", "blocked", "padded", "6d", "williams", "compressed"} {
		s, err := (Layout{Kind: kind, BlockW: 8, PadBlocks: 1, SuperBytes: 32 << 10, Ratio: 2}).Spec()
		if err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
		if back := LayoutFromSpec(s); back.Kind != kind {
			t.Errorf("kind %s round-trips to %s", kind, back.Kind)
		}
	}
	trav, err := (Traversal{Order: "vertical", TileW: 32, TileH: 16}).Raster()
	if err != nil || trav.Order != raster.ColumnMajor || trav.TileW != 32 || trav.TileH != 16 {
		t.Errorf("Traversal.Raster = %+v, %v", trav, err)
	}
	cc, err := (CacheConfig{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, Policy: "fifo"}).Cache()
	if err != nil || cc.Policy != cache.FIFO || cc.SizeBytes != 16<<10 {
		t.Errorf("CacheConfig.Cache = %+v, %v", cc, err)
	}
	if _, err := (CacheConfig{Policy: "mru"}).Cache(); err == nil {
		t.Error("bad policy should error")
	}
}

// TestResolvedDefaults pins the post-Validate resolution helpers.
func TestResolvedDefaults(t *testing.T) {
	r := sweepReq()
	if spec := r.LayoutSpec(); spec.Kind != texture.BlockedKind || spec.BlockW != 8 {
		t.Errorf("default LayoutSpec = %+v, want blocked 8", spec)
	}
	if trav := r.RasterTraversal(); trav.Order != exp.DefaultTraversalFor("goblet").Order {
		t.Errorf("default traversal = %+v", trav)
	}
	town := r
	town.Scene = "town"
	if trav := town.RasterTraversal(); trav.Order != raster.ColumnMajor {
		t.Errorf("town default traversal = %+v, want column-major", trav)
	}
	cfgs := r.CacheConfigs()
	if len(cfgs) != 1 || cfgs[0].LineBytes != 128 {
		t.Errorf("CacheConfigs = %+v", cfgs)
	}
	cfg := ExperimentRequest{Scale: 4, Scenes: []string{"town"}, Sweep: SweepPerConfig, RenderWorkers: 3}.ExpConfig()
	if cfg.Scale != 4 || cfg.RenderWorkers != 3 || len(cfg.Scenes) != 1 || cfg.Traces != nil {
		t.Errorf("ExpConfig = %+v", cfg)
	}
}

// TestWireJSON pins the wire field names — renaming one is a breaking
// change the versioning policy forbids within a major version.
func TestWireJSON(t *testing.T) {
	req := ExperimentRequest{
		V: 1, Tenant: "t1", Scene: "goblet", Scale: 4, Sweep: SweepGrouped,
		Layout:    &Layout{Kind: "blocked", BlockW: 8},
		Traversal: &Traversal{Order: "hilbert"},
		Configs:   []CacheConfig{{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2, Policy: "lru"}},
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"v":1`, `"tenant":"t1"`, `"scene":"goblet"`, `"scale":4`, `"sweep":"grouped"`,
		`"layout":{"kind":"blocked","block_w":8}`, `"traversal":{"order":"hilbert"}`,
		`"size_bytes":32768`, `"line_bytes":128`, `"ways":2`, `"policy":"lru"`,
	} {
		if !strings.Contains(string(b), field) {
			t.Errorf("wire JSON missing %s in %s", field, b)
		}
	}
	if omit, _ := json.Marshal(ExperimentRequest{}); string(omit) != "{}" {
		t.Errorf("zero request should marshal to {}, got %s", omit)
	}
	errBody, _ := json.Marshal(Errorf(CodeSaturated, "queue full"))
	want := `{"v":1,"code":"saturated","error":"queue full"}`
	if string(errBody) != want {
		t.Errorf("error body = %s, want %s", errBody, want)
	}
}

// ---- architecture kind ----

func archReq() ExperimentRequest {
	return ExperimentRequest{
		Scene:        "goblet",
		Architecture: &Architecture{},
	}.Normalized()
}

func TestArchitectureKind(t *testing.T) {
	if k := archReq().Kind(); k != KindArchitecture {
		t.Errorf("architecture request Kind = %v", k)
	}
	// The Architecture block wins the discrimination even when sweep
	// fields are also present.
	r := archReq()
	r.Configs = []CacheConfig{{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}}
	r.Layout = &Layout{Kind: "blocked", BlockW: 8}
	if k := r.Kind(); k != KindArchitecture {
		t.Errorf("architecture+configs request Kind = %v", k)
	}
}

// TestArchitectureNormalized pins the wire defaulting: every zero field
// becomes the paper-point machine, explicit values survive.
func TestArchitectureNormalized(t *testing.T) {
	a := archReq().Architecture
	want := Architecture{
		Pipeline:     PipelineBoth,
		FragmentFIFO: arch.DefaultFragmentFIFO, RequestFIFO: arch.DefaultRequestFIFO,
		ReorderBuffer: arch.DefaultReorderBuffer, ResultFIFO: arch.DefaultResultFIFO,
		TexelsPerCycle: arch.DefaultTexelsPerCycle, TexelsPerFragment: arch.DefaultTexelsPerFragment,
		FillLatency: arch.DefaultFillLatency, FillOccupancy: arch.DefaultFillOccupancy,
	}
	if *a != want {
		t.Errorf("Normalized zero Architecture = %+v, want %+v", *a, want)
	}
	kept := Architecture{Pipeline: PipelinePrefetch, FragmentFIFO: 4, FillLatency: 400}.Normalized()
	if kept.Pipeline != PipelinePrefetch || kept.FragmentFIFO != 4 || kept.FillLatency != 400 {
		t.Errorf("Normalized kept = %+v", kept)
	}
	if kept.RequestFIFO != arch.DefaultRequestFIFO {
		t.Errorf("Normalized left RequestFIFO = %d", kept.RequestFIFO)
	}
}

func TestValidateArchitecture(t *testing.T) {
	mut := func(f func(*ExperimentRequest)) ExperimentRequest {
		r := archReq()
		f(&r)
		return r
	}
	cases := []struct {
		name       string
		req        ExperimentRequest
		wantField  string
		wantCode   string
		wantStatus int
	}{
		{name: "minimal", req: archReq()},
		{name: "full", req: mut(func(r *ExperimentRequest) {
			r.Configs = []CacheConfig{{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}}
			r.Layout = &Layout{Kind: "padded", BlockW: 8, PadBlocks: 4}
			r.Traversal = &Traversal{Order: "horizontal", TileW: 8, TileH: 8}
			r.Architecture = &Architecture{Pipeline: PipelinePrefetch, FragmentFIFO: 16, FillLatency: 200}
		})},
		{name: "with experiments", req: mut(func(r *ExperimentRequest) { r.Experiments = []string{"fig5.2"} }),
			wantField: "experiments", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "without scene", req: mut(func(r *ExperimentRequest) { r.Scene = "" }),
			wantField: "scene", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "unknown scene", req: mut(func(r *ExperimentRequest) { r.Scene = "nowhere" }),
			wantField: "scene", wantCode: CodeUnknownScene, wantStatus: http.StatusNotFound},
		{name: "bad pipeline", req: mut(func(r *ExperimentRequest) { r.Architecture.Pipeline = "speculative" }),
			wantField: "architecture.pipeline", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad fragment fifo", req: mut(func(r *ExperimentRequest) { r.Architecture.FragmentFIFO = -1 }),
			wantField: "architecture.fragment_fifo", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad fill latency", req: mut(func(r *ExperimentRequest) { r.Architecture.FillLatency = -5 }),
			wantField: "architecture.fill_latency", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad reorder buffer", req: mut(func(r *ExperimentRequest) { r.Architecture.ReorderBuffer = -2 }),
			wantField: "architecture.reorder_buffer", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad layout", req: mut(func(r *ExperimentRequest) { r.Layout = &Layout{Kind: "spiral"} }),
			wantField: "layout", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad traversal", req: mut(func(r *ExperimentRequest) { r.Traversal = &Traversal{Order: "diagonal"} }),
			wantField: "traversal", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
		{name: "bad cache config", req: mut(func(r *ExperimentRequest) { r.Configs = []CacheConfig{{SizeBytes: 100, LineBytes: 128}} }),
			wantField: "configs[0]", wantCode: CodeBadRequest, wantStatus: http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.req)
			if tc.wantCode == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("Validate = %v (%T), want *api.Error", err, err)
			}
			if ae.Code != tc.wantCode || ae.Field != tc.wantField {
				t.Errorf("error code/field = %s/%s, want %s/%s", ae.Code, ae.Field, tc.wantCode, tc.wantField)
			}
			if got := ae.HTTPStatus(); got != tc.wantStatus {
				t.Errorf("HTTPStatus = %d, want %d", got, tc.wantStatus)
			}
		})
	}
}

// TestArchConfigs pins the machine-list resolution: configs outer,
// pipelines inner, paper design point when no configs are named.
func TestArchConfigs(t *testing.T) {
	r := archReq()
	machines := r.ArchConfigs()
	if len(machines) != 2 {
		t.Fatalf("default ArchConfigs = %d machines, want blocking+prefetch", len(machines))
	}
	if machines[0].Pipeline != arch.Blocking || machines[1].Pipeline != arch.Prefetch {
		t.Errorf("pipeline order = %v, %v", machines[0].Pipeline, machines[1].Pipeline)
	}
	if machines[0].Cache != DefaultArchCache() {
		t.Errorf("default cache = %+v", machines[0].Cache)
	}
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			t.Errorf("resolved machine invalid: %v", err)
		}
	}
	r.Architecture.Pipeline = PipelinePrefetch
	r.Configs = []CacheConfig{
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2},
	}
	machines = r.ArchConfigs()
	if len(machines) != 2 || machines[0].Cache.SizeBytes != 16<<10 || machines[1].Cache.SizeBytes != 32<<10 {
		t.Errorf("two-config prefetch ArchConfigs = %+v", machines)
	}
}

// TestArchitectureWireJSON pins the exact bytes of the architecture
// request — the wire-stability contract — and the additive-versioning
// discipline: unknown fields are rejected at the server boundary.
func TestArchitectureWireJSON(t *testing.T) {
	req := ExperimentRequest{
		V: 1, Scene: "goblet", Scale: 4,
		Architecture: &Architecture{
			Pipeline: "both", FragmentFIFO: 64, RequestFIFO: 32, ReorderBuffer: 32,
			ResultFIFO: 8, TexelsPerCycle: 4, TexelsPerFragment: 8,
			FillLatency: 100, FillOccupancy: 4,
		},
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"scene":"goblet",` +
		`"architecture":{"pipeline":"both","fragment_fifo":64,"request_fifo":32,` +
		`"reorder_buffer":32,"result_fifo":8,"texels_per_cycle":4,"texels_per_fragment":8,` +
		`"fill_latency":100,"fill_occupancy":4},"scale":4}`
	if string(b) != want {
		t.Errorf("wire bytes\n got %s\nwant %s", b, want)
	}

	// Round trip: the parsed form is the original struct.
	var back ExperimentRequest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scene != req.Scene || back.Architecture == nil || *back.Architecture != *req.Architecture {
		t.Errorf("round trip = %+v", back)
	}

	// A minimal request marshals with no architecture noise, and the
	// empty block round-trips through Normalized to the paper machine.
	minimal, _ := json.Marshal(ExperimentRequest{Scene: "goblet", Architecture: &Architecture{}})
	if string(minimal) != `{"scene":"goblet","architecture":{}}` {
		t.Errorf("minimal wire bytes = %s", minimal)
	}

	// Unknown fields inside the architecture block are rejected under
	// the server's DisallowUnknownFields decode.
	dec := json.NewDecoder(strings.NewReader(`{"scene":"goblet","architecture":{"fifo_depth":4}}`))
	dec.DisallowUnknownFields()
	var r ExperimentRequest
	if err := dec.Decode(&r); err == nil || !strings.Contains(err.Error(), "fifo_depth") {
		t.Errorf("unknown architecture field accepted: %v", err)
	}
}

// TestWrapErrorConfigTypes pins the classification of the typed config
// errors onto bad_request with their field names.
func TestWrapErrorConfigTypes(t *testing.T) {
	archErr := arch.Config{}.Validate() // invalid cache -> *cache.ConfigError
	var cce *cache.ConfigError
	if !errors.As(archErr, &cce) {
		t.Fatalf("zero arch config error = %T", archErr)
	}
	if ae := WrapError(archErr); ae.Code != CodeBadRequest || ae.Field != "configs" {
		t.Errorf("WrapError(cache config) = %s/%s", ae.Code, ae.Field)
	}

	bad := arch.Default(cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}, arch.Prefetch)
	bad.FillOccupancy = 0
	if ae := WrapError(bad.Validate()); ae.Code != CodeBadRequest || ae.Field != "architecture.fill_occupancy" {
		t.Errorf("WrapError(arch config) = %s/%s", ae.Code, ae.Field)
	}

	pbad := prefetch.Default(cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2}, -1)
	if ae := WrapError(pbad.Validate()); ae.Code != CodeBadRequest || ae.Field != "fifo_depth" {
		t.Errorf("WrapError(prefetch config) = %s/%s", ae.Code, ae.Field)
	}
}
