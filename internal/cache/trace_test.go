package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestTraceRecordReplay(t *testing.T) {
	tr := NewTrace(4)
	tr.Access(100)
	tr.Access(200)
	tr.Access(100)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	var got []uint64
	ReplayStream(tr, SinkFunc(func(a uint64) { got = append(got, a) }))
	if !reflect.DeepEqual(got, []uint64{100, 200, 100}) {
		t.Errorf("replay delivered %v", got)
	}
}

func TestTraceSimulateConfigs(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < 1000; i++ {
		tr.Access(uint64(i*4) % 2048)
	}
	cfgs := []Config{
		{SizeBytes: 256, LineBytes: 32, Ways: 0},
		{SizeBytes: 4096, LineBytes: 32, Ways: 0},
	}
	stats := tr.SimulateConfigs(cfgs)
	if len(stats) != 2 {
		t.Fatalf("got %d stats", len(stats))
	}
	if stats[0].Misses <= stats[1].Misses {
		t.Errorf("small cache should miss more: %v vs %v", stats[0].Misses, stats[1].Misses)
	}
	// The 4KB cache covers the 2KB footprint: only cold misses.
	if stats[1].Misses != stats[1].Cold {
		t.Errorf("oversized cache has non-cold misses: %+v", stats[1])
	}
	for _, s := range stats {
		if s.Accesses != 1000 {
			t.Errorf("accesses = %d", s.Accesses)
		}
		if s.Cold+s.Capacity+s.Conflict != s.Misses {
			t.Errorf("3C partition broken: %+v", s)
		}
	}
}

func TestFALRUBasics(t *testing.T) {
	f := newFALRU(2)
	if f.access(1) {
		t.Error("cold access hit")
	}
	if !f.access(1) {
		t.Error("re-access missed")
	}
	f.access(2)
	f.access(3) // evicts 1 (LRU)
	if f.contains(1) {
		t.Error("1 should be evicted")
	}
	if !f.contains(2) || !f.contains(3) {
		t.Error("2 and 3 should be resident")
	}
	if f.len() != 2 {
		t.Errorf("len = %d", f.len())
	}
	f.reset()
	if f.len() != 0 || f.contains(2) {
		t.Error("reset did not clear")
	}
}

func TestFALRUMatchesReferenceModel(t *testing.T) {
	// Property: falru matches a naive slice-based LRU model.
	rng := rand.New(rand.NewSource(3))
	const capLines = 16
	f := newFALRU(capLines)
	var model []uint64 // model[0] is MRU
	touch := func(a uint64) bool {
		for i, v := range model {
			if v == a {
				model = append(model[:i], model[i+1:]...)
				model = append([]uint64{a}, model...)
				return true
			}
		}
		model = append([]uint64{a}, model...)
		if len(model) > capLines {
			model = model[:capLines]
		}
		return false
	}
	for i := 0; i < 50000; i++ {
		a := uint64(rng.Intn(40))
		if got, want := f.access(a), touch(a); got != want {
			t.Fatalf("step %d addr %d: falru=%v model=%v", i, a, got, want)
		}
	}
}
