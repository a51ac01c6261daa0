package cache

import (
	"context"
	"testing"

	"texcache/internal/obs"
)

// TestReplayMetricsBulkFlush verifies the serial replay paths account
// their address volume exactly once per pass.
func TestReplayMetricsBulkFlush(t *testing.T) {
	defer obs.Detach()
	tr := NewTrace(0)
	for i := 0; i < 5000; i++ {
		tr.Access(uint64(i*64) % (1 << 16))
	}
	for _, f := range bothForms(tr) {
		reg := obs.NewRegistry()
		obs.Attach(reg)
		c := New(Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2})
		ReplayStream(f.s, c.Sink(), NewStackDist(32))
		if got := reg.Sub("replay").Counter("addresses").Value(); got != 2*uint64(tr.Len()) {
			t.Errorf("%s: replay.addresses = %d after ReplayStream, want %d", f.name, got, 2*tr.Len())
		}
		if n := reg.Sub("replay").Timer("pass").Count(); n != 1 {
			t.Errorf("%s: replay.pass count = %d, want 1", f.name, n)
		}
	}

	tr.SimulateConfigs([]Config{
		{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2},
	})
	want := 2*uint64(tr.Len()) + 2*uint64(tr.Len())
	if got := obs.Default().Sub("replay").Counter("addresses").Value(); got != want {
		t.Errorf("replay.addresses = %d after SimulateConfigs, want %d", got, want)
	}
}

// TestReplayConcurrentMetricsConsistent drives the concurrent replay's
// per-sink goroutines against the shared registry and checks the final
// metric values are exact — under -race this also proves the metric
// updates from concurrent sinks are data-race free.
func TestReplayConcurrentMetricsConsistent(t *testing.T) {
	defer obs.Detach()
	tr := NewTrace(0)
	for i := 0; i < 200000; i++ {
		tr.Access(uint64(i*64) % (1 << 18))
	}
	const nSinks = 8
	for _, f := range bothForms(tr) {
		reg := obs.NewRegistry()
		obs.Attach(reg)
		sinks := make([]Sink, nSinks)
		caches := make([]*Cache, nSinks)
		for i := range sinks {
			c, err := TryNew(Config{SizeBytes: 1 << (10 + uint(i%4)), LineBytes: 64, Ways: 2})
			if err != nil {
				t.Fatal(err)
			}
			caches[i] = c
			sinks[i] = c.Sink()
		}
		if err := ReplayStreamConcurrent(context.Background(), f.s, sinks...); err != nil {
			t.Fatal(err)
		}

		rep := reg.Sub("replay")
		if got, want := rep.Counter("addresses").Value(), uint64(tr.Len())*nSinks; got != want {
			t.Errorf("%s: replay.addresses = %d, want %d", f.name, got, want)
		}
		if n := rep.Timer("concurrent_pass").Count(); n != 1 {
			t.Errorf("%s: replay.concurrent_pass count = %d, want 1", f.name, n)
		}
		// The metrics must not have perturbed the simulation itself.
		for i, c := range caches {
			if c.Stats().Accesses != uint64(tr.Len()) {
				t.Errorf("%s: sink %d saw %d accesses, want %d", f.name, i, c.Stats().Accesses, tr.Len())
			}
		}
	}
}
