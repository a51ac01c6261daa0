package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRequest decodes arbitrary bytes strictly, as texserve does
// (unknown fields rejected), and checks what the request path promises
// for any body without running the engine: nothing panics, Normalized
// is idempotent, a valid request's ResultIdentity survives a JSON round
// trip and ignores the execution-only fields (Tenant, Workers,
// RenderWorkers, Sweep), a valid grid enumerates at most MaxGridUnits
// units, and every cache and machine configuration a valid request
// resolves to passes its own Validate.
func FuzzRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"v":1,"tenant":"t1","scene":"goblet","layout":{"kind":"blocked","block_w":8},` +
			`"traversal":{"order":"hilbert"},"configs":[{"size_bytes":32768,"line_bytes":128,` +
			`"ways":2,"policy":"lru"}],"scale":4,"sweep":"grouped"}`,
		`{"scene":"goblet","scale":8,"configs":[{"size_bytes":32768,"line_bytes":128,"ways":2},` +
			`{"size_bytes":16384,"line_bytes":64,"ways":1,"policy":"fifo"}]}`,
		`{"experiments":["fig5.2"],"scenes":["goblet"],"scale":8}`,
		`{"v":1,"scene":"goblet","architecture":{"pipeline":"both","fragment_fifo":64,` +
			`"request_fifo":32,"reorder_buffer":32,"result_fifo":8,"texels_per_cycle":4,` +
			`"texels_per_fragment":8,"fill_latency":100,"fill_occupancy":4},"scale":4}`,
		`{"scene":"goblet","architecture":{}}`,
		`{"scene":"goblet","scale":8,"architecture":{"pipeline":"both","fill_latency":100}}`,
		`{"scene":"goblet","architecture":{"fifo_depth":4}}`,
		`{"grid":{"scenes":["town","flight"],"scales":[4,8],"configs":[{"size_bytes":2048,` +
			`"ways":1,"line_bytes":64}]},"shard":{"index":1,"count":4},"scale":2}`,
		`{"grid":{"scenes":["flight","town"],"scales":[8],"configs":[{"size_bytes":2048,` +
			`"ways":1,"line_bytes":64},{"size_bytes":8192,"ways":2,"line_bytes":64}]}}`,
		`{"scene":"town","sweep":"per-config","workers":3,"render_workers":2,` +
			`"configs":[{"size_bytes":4096,"line_bytes":32,"ways":0}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := strictDecode(body)
		if err != nil {
			return
		}
		n := req.Normalized()
		if again := n.Normalized(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalized is not idempotent:\n once %+v\ntwice %+v", n, again)
		}
		if Validate(n) != nil {
			return
		}
		id := req.ResultIdentity()
		if n.ResultIdentity() != id {
			t.Fatalf("ResultIdentity moved under Normalized: %s vs %s", n.ResultIdentity(), id)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		back, err := strictDecode(wire)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", wire, err)
		}
		if got := back.ResultIdentity(); got != id {
			t.Fatalf("ResultIdentity changed over a JSON round trip:\n got %s\nwant %s", got, id)
		}
		exec := req
		exec.Tenant, exec.Workers, exec.RenderWorkers = "other-tenant", 7, 3
		exec.Sweep = SweepPerConfig
		if got := exec.ResultIdentity(); got != id {
			t.Fatalf("ResultIdentity depends on execution-only fields:\n got %s\nwant %s", got, id)
		}
		if g := n.Grid; g != nil {
			units := float64(len(g.Configs)) * float64(max(len(g.Scenes), 1)) *
				float64(max(len(g.Scales), 1)) * float64(max(len(g.Layouts), 1)) *
				float64(max(len(g.Traversals), 1))
			if units > MaxGridUnits {
				t.Fatalf("a grid of %.0f units passed validation (max %d)", units, MaxGridUnits)
			}
		}
		for i, c := range n.CacheConfigs() {
			if err := c.Validate(); err != nil {
				t.Fatalf("configs[%d] of a valid request: %v", i, err)
			}
		}
		for i, a := range n.ArchConfigs() {
			if err := a.Validate(); err != nil {
				t.Fatalf("machine %d of a valid request: %v", i, err)
			}
		}
	})
}

// strictDecode reads one request the way texserve's handler does.
func strictDecode(body []byte) (ExperimentRequest, error) {
	var req ExperimentRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}
