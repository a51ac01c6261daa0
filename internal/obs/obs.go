// Package obs is the simulator's observability layer: atomic counters,
// gauges and timers in a hierarchical named registry, and snapshot
// export through expvar plus an optional debug HTTP endpoint.
//
// Instrumented code is written against nil-safe handles: asking a nil
// *Registry for a metric returns a nil handle, and every method on a nil
// handle is a no-op. Code instrumented against Default() therefore
// compiles down to a pointer load and a branch when no registry is
// attached — nothing is allocated and no atomics run. Hot loops must
// never update metrics per element; they accumulate locally and flush
// once per pass, frame or chunk.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops), so handles from a detached registry
// cost one branch.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value that can move both ways (queue
// depths, busy workers, backlogs). Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates durations: total elapsed time and the number of
// observations, enough to derive mean latency and rates. Nil-safe.
type Timer struct {
	count atomic.Uint64
	ns    atomic.Int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.ns.Add(int64(d))
}

// ObserveSince records the time elapsed since start.
func (t *Timer) ObserveSince(start time.Time) {
	if t == nil {
		return
	}
	t.Observe(time.Since(start))
}

// Count returns the number of observations.
func (t *Timer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Mean returns the average observed duration (0 with no observations).
func (t *Timer) Mean() time.Duration {
	n := t.Count()
	if n == 0 {
		return 0
	}
	return t.Total() / time.Duration(n)
}

// Registry holds named metrics. Sub returns a child registry whose
// metric names are prefixed with its path, so subsystems instrument
// themselves under their own namespace ("engine.experiments",
// "replay.addresses", ...). All lookup methods are safe on a nil
// receiver and return nil handles.
type Registry struct {
	prefix string // dotted path prefix including trailing ".", "" at root

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	subs     map[string]*Registry
	root     *Registry // shared metric maps live here
}

// NewRegistry returns an empty root registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
		subs:     map[string]*Registry{},
	}
	r.root = r
	return r
}

// Sub returns the child registry for name, creating it on first use.
// Metrics created through the child live in the root's flat namespace
// under "name." — Snapshot and expvar export see one dotted tree.
func (r *Registry) Sub(name string) *Registry {
	if r == nil {
		return nil
	}
	root := r.root
	full := r.prefix + name
	root.mu.Lock()
	defer root.mu.Unlock()
	s, ok := root.subs[full]
	if !ok {
		s = &Registry{prefix: full + ".", root: root}
		root.subs[full] = s
	}
	return s
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	root := r.root
	full := r.prefix + name
	root.mu.Lock()
	defer root.mu.Unlock()
	c, ok := root.counters[full]
	if !ok {
		c = &Counter{}
		root.counters[full] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	root := r.root
	full := r.prefix + name
	root.mu.Lock()
	defer root.mu.Unlock()
	g, ok := root.gauges[full]
	if !ok {
		g = &Gauge{}
		root.gauges[full] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	root := r.root
	full := r.prefix + name
	root.mu.Lock()
	defer root.mu.Unlock()
	t, ok := root.timers[full]
	if !ok {
		t = &Timer{}
		root.timers[full] = t
	}
	return t
}

// Snapshot returns every metric as a flat dotted-name map: counters as
// uint64, gauges as int64, timers as nested {count, total_ns, mean_ns}.
// Safe on a nil registry (returns an empty map) and under concurrent
// updates (values are atomic loads, not a consistent cut).
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	root := r.root
	root.mu.Lock()
	defer root.mu.Unlock()
	for name, c := range root.counters {
		out[name] = c.Value()
	}
	for name, g := range root.gauges {
		out[name] = g.Value()
	}
	for name, t := range root.timers {
		out[name] = map[string]any{
			"count":    t.Count(),
			"total_ns": int64(t.Total()),
			"mean_ns":  int64(t.Mean()),
		}
	}
	return out
}

// Names returns the sorted metric names of the snapshot, for stable
// summary output.
func (r *Registry) Names() []string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SummaryLine formats the registry's counters and gauges as one
// "name=value name=value" line in sorted name order, the end-of-run
// summary texsim prints. Timers render as their total duration.
func (r *Registry) SummaryLine() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		switch v := snap[n].(type) {
		case map[string]any:
			sb.WriteString(time.Duration(v["total_ns"].(int64)).Round(time.Millisecond).String())
		case uint64:
			writeUint(&sb, v)
		case int64:
			if v < 0 {
				sb.WriteByte('-')
				writeUint(&sb, uint64(-v))
			} else {
				writeUint(&sb, uint64(v))
			}
		}
	}
	return sb.String()
}

// writeUint appends a base-10 rendering without fmt.
func writeUint(sb *strings.Builder, v uint64) {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	sb.Write(buf[i:])
}

// defaultReg is the process-wide registry instrumented code reads
// through Default(). Detached (nil) by default, so library users pay
// nothing unless they opt in.
var defaultReg atomic.Pointer[Registry]

// Attach installs r as the process-wide default registry. Attach(nil)
// detaches.
func Attach(r *Registry) {
	defaultReg.Store(r)
}

// Detach removes the default registry; instrumented code reverts to
// no-op handles.
func Detach() { defaultReg.Store(nil) }

// Default returns the attached registry, or nil when detached. The load
// is a single atomic pointer read, cheap enough for per-call (never
// per-element) use on hot paths.
func Default() *Registry { return defaultReg.Load() }
