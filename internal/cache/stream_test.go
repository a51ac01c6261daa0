package cache

import (
	"context"
	"errors"
	"testing"
	"time"

	"texcache/internal/obs"
)

// blindStream wraps a Trace behind the bare AddrStream interface, hiding
// its concrete type: the tests below run every replay path over a
// *Trace and over blindStream, proving the results depend only on the
// AddrStream contract a compact encoded trace also meets.
type blindStream struct{ t *Trace }

func (b blindStream) Len() int       { return b.t.Len() }
func (b blindStream) Cursor() Cursor { return b.t.Cursor() }

// chunkedStream serves a trace in blocks of n addresses, so tests can
// drive many-block schedules over short traces.
type chunkedStream struct {
	t *Trace
	n int
}

func (c chunkedStream) Len() int       { return c.t.Len() }
func (c chunkedStream) Cursor() Cursor { return &chunkCursor{addrs: c.t.Addrs, n: c.n} }

type chunkCursor struct {
	addrs []uint64
	n     int
}

func (c *chunkCursor) Next() []uint64 {
	if len(c.addrs) == 0 {
		return nil
	}
	k := min(c.n, len(c.addrs))
	b := c.addrs[:k]
	c.addrs = c.addrs[k:]
	return b
}

// namedStream labels one form of a test trace in failure messages.
type namedStream struct {
	name string
	s    AddrStream
}

// bothForms returns tr itself and tr behind blindStream.
func bothForms(tr *Trace) []namedStream {
	return []namedStream{{"trace", tr}, {"blind", blindStream{tr}}}
}

// syntheticTrace builds a stream with texture-like locality: short runs
// of nearby addresses with periodic jumps between regions.
func syntheticTrace(n int) *Trace {
	t := NewTrace(n)
	addr := uint64(1 << 20)
	for i := 0; i < n; i++ {
		switch {
		case i%97 == 0:
			addr = uint64((i * 2654435761) % (1 << 24))
		case i%7 == 0:
			addr += 4096
		default:
			addr += 4
		}
		t.Access(addr)
	}
	return t
}

// sweepConfigs is the shared multi-config sweep the equivalence tests use.
func sweepConfigs() []Config {
	return []Config{
		{SizeBytes: 1 << 10, LineBytes: 32, Ways: 1},
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2},
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4},
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 2},
		{SizeBytes: 32 << 10, LineBytes: 128, Ways: 0},
		{SizeBytes: 64 << 10, LineBytes: 128, Ways: 8},
		{SizeBytes: 128 << 10, LineBytes: 256, Ways: 1},
	}
}

// classifyingCaches builds one classifying cache per configuration, the
// per-configuration replay the grouped sweeps stand in for.
func classifyingCaches(cfgs []Config) ([]*Cache, []Sink) {
	caches := make([]*Cache, len(cfgs))
	sinks := make([]Sink, len(cfgs))
	for i, cfg := range cfgs {
		caches[i] = NewClassifying(cfg)
		sinks[i] = caches[i].Sink()
	}
	return caches, sinks
}

func TestTraceCursorYieldsExactStream(t *testing.T) {
	for _, n := range []int{0, 1, replayChunkLen - 1, replayChunkLen, replayChunkLen + 1, 3*replayChunkLen + 17} {
		tr := syntheticTrace(n)
		var got []uint64
		cur := tr.Cursor()
		for block := cur.Next(); block != nil; block = cur.Next() {
			if len(block) == 0 {
				t.Fatalf("n=%d: cursor yielded an empty non-nil block", n)
			}
			got = append(got, block...)
		}
		if len(got) != len(tr.Addrs) {
			t.Fatalf("n=%d: cursor yielded %d addresses, want %d", n, len(got), len(tr.Addrs))
		}
		for i := range got {
			if got[i] != tr.Addrs[i] {
				t.Fatalf("n=%d: address %d = %d, want %d", n, i, got[i], tr.Addrs[i])
			}
		}
	}
}

func TestTraceAccessBulkMatchesAccess(t *testing.T) {
	src := syntheticTrace(5000)
	var one, bulk Trace
	for _, a := range src.Addrs {
		one.Access(a)
	}
	for lo := 0; lo < len(src.Addrs); lo += 513 {
		bulk.AccessBulk(src.Addrs[lo:min(lo+513, len(src.Addrs))])
	}
	if len(one.Addrs) != len(bulk.Addrs) {
		t.Fatalf("bulk recorded %d addresses, Access recorded %d", len(bulk.Addrs), len(one.Addrs))
	}
	for i := range one.Addrs {
		if one.Addrs[i] != bulk.Addrs[i] {
			t.Fatalf("address %d: bulk %d != serial %d", i, bulk.Addrs[i], one.Addrs[i])
		}
	}
}

// TestReplayStreamMatchesReplay pins the core property: replaying a
// stream block by block through its cursor leaves every sink
// bit-identical to presenting the whole trace at once, for caches and
// the stack profiler alike.
func TestReplayStreamMatchesReplay(t *testing.T) {
	tr := syntheticTrace(100000)
	cfg := Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}

	want := NewClassifying(cfg)
	for _, a := range tr.Addrs {
		want.Access(a)
	}
	wantSD := NewStackDist(64)
	wantSD.AccessBatch(tr.Addrs)

	for _, f := range bothForms(tr) {
		got := NewClassifying(cfg)
		gotSD := NewStackDist(64)
		ReplayStream(f.s, got.Sink(), gotSD)
		if got.Stats() != want.Stats() {
			t.Errorf("%s: stream stats %+v != whole-trace %+v", f.name, got.Stats(), want.Stats())
		}
		if gotSD.DistinctLines() != wantSD.DistinctLines() || gotSD.ColdMisses() != wantSD.ColdMisses() ||
			gotSD.MissRateAt(8<<10) != wantSD.MissRateAt(8<<10) {
			t.Errorf("%s: stream stack profile diverged: %d/%d lines, %d/%d cold", f.name,
				gotSD.DistinctLines(), wantSD.DistinctLines(), gotSD.ColdMisses(), wantSD.ColdMisses())
		}
	}
}

// TestReplayStreamConcurrentMatchesSerial checks both grouped sweeps
// against the serial oracle on LRU, FIFO and random configurations,
// the last two taking the per-configuration fallback.
func TestReplayStreamConcurrentMatchesSerial(t *testing.T) {
	tr := syntheticTrace(200000)
	cfgs := []Config{
		{SizeBytes: 4 << 10, LineBytes: 32, Ways: 1},
		{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2},
		{SizeBytes: 64 << 10, LineBytes: 128, Ways: 0},
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, Policy: FIFO},
		{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, Policy: Random},
	}
	ctx := context.Background()
	want := tr.SimulateConfigs(cfgs)

	for _, f := range bothForms(tr) {
		grouped, err := SimulateConfigsGroupedStream(ctx, f.s, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		rates, err := MissRatesGroupedStream(ctx, f.s, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if grouped[i] != want[i] {
				t.Errorf("%s %+v: grouped %+v != serial %+v", f.name, cfgs[i], grouped[i], want[i])
			}
			if rates[i] != want[i].MissRate() {
				t.Errorf("%s %+v: grouped rate %v != serial %v", f.name, cfgs[i], rates[i], want[i].MissRate())
			}
		}
	}
}

// TestSimulateConfigsConcurrentMatchesSerial replays one classifying
// cache per configuration in a single concurrent pass and checks each
// against the serial oracle.
func TestSimulateConfigsConcurrentMatchesSerial(t *testing.T) {
	tr := syntheticTrace(50_000)
	cfgs := sweepConfigs()
	want := tr.SimulateConfigs(cfgs)
	for _, f := range bothForms(tr) {
		caches, sinks := classifyingCaches(cfgs)
		if err := ReplayStreamConcurrent(context.Background(), f.s, sinks...); err != nil {
			t.Fatal(err)
		}
		for i, c := range caches {
			if c.Stats() != want[i] {
				t.Errorf("%s %v: concurrent %+v != serial %+v", f.name, cfgs[i], c.Stats(), want[i])
			}
		}
	}
}

func TestReplayConcurrentSmallChunks(t *testing.T) {
	// Tiny blocks force many cursor steps per sink, shaking out
	// ordering bugs.
	tr := syntheticTrace(10_000)
	cfgs := sweepConfigs()[:4]
	want := tr.SimulateConfigs(cfgs)
	caches, sinks := classifyingCaches(cfgs)
	if err := ReplayStreamConcurrent(context.Background(), chunkedStream{tr, 7}, sinks...); err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if caches[i].Stats() != want[i] {
			t.Errorf("%v: chunked %+v != serial %+v", cfgs[i], caches[i].Stats(), want[i])
		}
	}
}

func TestReplayConcurrentStackDist(t *testing.T) {
	tr := syntheticTrace(20_000)
	serial := NewStackDist(32)
	ReplayStream(tr, serial)
	for _, f := range bothForms(tr) {
		concurrent := NewStackDist(32)
		if err := ReplayStreamConcurrent(context.Background(), f.s, concurrent); err != nil {
			t.Fatal(err)
		}
		for _, sz := range []int{1 << 10, 4 << 10, 16 << 10} {
			if got, want := concurrent.MissRateAt(sz), serial.MissRateAt(sz); got != want {
				t.Errorf("%s: stack-distance miss rate at %d: concurrent %v != serial %v", f.name, sz, got, want)
			}
		}
	}
}

func TestReplayConcurrentEmptyAndNoSinks(t *testing.T) {
	for _, f := range bothForms(NewTrace(0)) {
		if err := ReplayStreamConcurrent(context.Background(), f.s); err != nil {
			t.Errorf("%s: no sinks: %v", f.name, err)
		}
		c := New(Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 1})
		if err := ReplayStreamConcurrent(context.Background(), f.s, c.Sink()); err != nil {
			t.Errorf("%s: empty trace: %v", f.name, err)
		}
		if c.Stats().Accesses != 0 {
			t.Errorf("%s: empty trace produced accesses: %+v", f.name, c.Stats())
		}
	}
}

func TestReplayConcurrentCancellation(t *testing.T) {
	tr := syntheticTrace(100_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the pass must stop promptly
	for _, f := range bothForms(tr) {
		done := make(chan error, 2)
		go func() {
			c := New(Config{SizeBytes: 4 << 10, LineBytes: 32, Ways: 2})
			done <- ReplayStreamConcurrent(ctx, f.s, c.Sink())
			done <- ReplayStreamConcurrent(ctx, f.s)
		}()
		for range 2 {
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s: cancelled replay returned %v, want context.Canceled", f.name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: cancelled replay did not return promptly", f.name)
			}
		}
	}
}

// TestReplayStreamConcurrentCancellation cancels the context from inside
// a sink: the pass must stop at the next block boundary and report the
// cancellation, not run the stream to its end.
func TestReplayStreamConcurrentCancellation(t *testing.T) {
	tr := syntheticTrace(200000)
	for _, f := range bothForms(tr) {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		sink := SinkFunc(func(uint64) {
			seen++
			cancel()
		})
		if err := ReplayStreamConcurrent(ctx, f.s, sink); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: replay cancelled mid-pass returned %v, want context.Canceled", f.name, err)
		}
		if seen != replayChunkLen {
			t.Errorf("%s: sink saw %d addresses after cancelling in the first block, want %d", f.name, seen, replayChunkLen)
		}
	}
}

// TestSimulateConfigsConcurrentInvalidConfig verifies an invalid
// configuration anywhere in a sweep surfaces as *ConfigError before any
// replay work happens.
func TestSimulateConfigsConcurrentInvalidConfig(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()

	tr := syntheticTrace(100)
	good := Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 1}
	var ce *ConfigError
	if _, err := SimulateConfigsGroupedStream(context.Background(), tr,
		[]Config{good, {SizeBytes: 3000, LineBytes: 32, Ways: 1}}); !errors.As(err, &ce) {
		t.Errorf("SimulateConfigsGroupedStream: invalid config returned %v, want *ConfigError", err)
	}
	if _, err := MissRatesGroupedStream(context.Background(), tr,
		[]Config{good, {SizeBytes: 1 << 10, LineBytes: 3, Ways: 1}}); !errors.As(err, &ce) {
		t.Errorf("MissRatesGroupedStream: invalid config returned %v, want *ConfigError", err)
	}
	if got := reg.Sub("replay").Counter("addresses").Value(); got != 0 {
		t.Errorf("replay.addresses = %d after rejected sweeps, want 0", got)
	}
}

// TestReplayStreamMetrics verifies both replay paths account their
// address volume under the replay.* metrics, whatever the stream's form.
func TestReplayStreamMetrics(t *testing.T) {
	defer obs.Detach()
	tr := syntheticTrace(50000)
	for _, f := range bothForms(tr) {
		reg := obs.NewRegistry()
		obs.Attach(reg)
		c := New(Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 2})
		ReplayStream(f.s, c.Sink())
		if got := reg.Sub("replay").Counter("addresses").Value(); got != uint64(tr.Len()) {
			t.Errorf("%s: replay.addresses = %d after ReplayStream, want %d", f.name, got, tr.Len())
		}
		c2 := New(Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2})
		if err := ReplayStreamConcurrent(context.Background(), f.s, c.Sink(), c2.Sink()); err != nil {
			t.Fatal(err)
		}
		want := uint64(tr.Len()) + 2*uint64(tr.Len())
		if got := reg.Sub("replay").Counter("addresses").Value(); got != want {
			t.Errorf("%s: replay.addresses = %d after concurrent stream pass, want %d", f.name, got, want)
		}
		if n := reg.Sub("replay").Timer("concurrent_pass").Count(); n != 1 {
			t.Errorf("%s: replay.concurrent_pass count = %d, want 1", f.name, n)
		}
	}
}
