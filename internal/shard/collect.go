// Reassembly of grid output: Collector parses the engine's NDJSON grid
// rows back into measured points (to recompute the Pareto frontier from
// the exact bytes a run emitted), and MergeStreams k-way merges the
// per-shard worker streams back into the canonical unsharded order.
package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"texcache/internal/report"
)

// GridTableID is the report table id of grid result rows.
const GridTableID = "grid"

// FrontierID stamps the frontier lines appended after a full grid view
// ("exp":"pareto"), keeping them distinguishable from per-trace rows.
const FrontierID = "pareto"

// Collector is an io.Writer that parses a grid NDJSON stream as it is
// written, gathering every measured row into per-trace points. Tee the
// run's output through one (io.MultiWriter) and call WriteFrontier to
// append the Pareto frontier computed from exactly the rows emitted.
type Collector struct {
	rest  []byte
	order []string           // trace tags, first-appearance order
	pts   map[string][]Point // rows per trace tag
	err   error
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{pts: map[string][]Point{}}
}

// Write implements io.Writer over the NDJSON stream; partial lines are
// buffered across calls. Parse errors are sticky and surface from
// WriteFrontier, never from Write, so the tee'd stream is undisturbed.
func (c *Collector) Write(p []byte) (int, error) {
	c.rest = append(c.rest, p...)
	for {
		nl := bytes.IndexByte(c.rest, '\n')
		if nl < 0 {
			return len(p), nil
		}
		line := c.rest[:nl]
		c.rest = c.rest[nl+1:]
		if err := c.line(line); err != nil && c.err == nil {
			c.err = err
		}
	}
}

// gridRow is the wire shape of one NDJSON line the collector cares
// about.
type gridRow struct {
	Exp    string `json:"exp"`
	Type   string `json:"type"`
	Table  string `json:"table"`
	Values []any  `json:"values"`
}

// line parses one NDJSON line, keeping grid rows and ignoring notes,
// table headers and other tables.
func (c *Collector) line(b []byte) error {
	if len(bytes.TrimSpace(b)) == 0 {
		return nil
	}
	var row gridRow
	if err := json.Unmarshal(b, &row); err != nil {
		return fmt.Errorf("shard: malformed NDJSON line %q: %w", b, err)
	}
	if row.Type != "row" || row.Table != GridTableID {
		return nil
	}
	// Grid row layout (gridColumns in internal/engine): unit tag,
	// configuration label, miss %, accesses, misses, cold, capacity,
	// conflict, cost. The frontier needs no cold count, but a row from a
	// worker process with a malformed one is still rejected.
	if len(row.Values) < 9 {
		return fmt.Errorf("shard: grid row with %d values (want 9): %q", len(row.Values), b)
	}
	unit, _ := row.Values[0].(string)
	label, _ := row.Values[1].(string)
	acc, ok1 := asUint(row.Values[3])
	miss, ok2 := asUint(row.Values[4])
	_, ok3 := asUint(row.Values[5])
	cost, ok4 := asInt(row.Values[8])
	if unit == "" || !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("shard: grid row values malformed: %q", b)
	}
	if _, seen := c.pts[row.Exp]; !seen {
		c.order = append(c.order, row.Exp)
	}
	c.pts[row.Exp] = append(c.pts[row.Exp], Point{
		Unit: unit, Label: label, Accesses: acc, Misses: miss, Cost: cost,
	})
	return nil
}

// asUint converts a decoded JSON number to uint64. Counts in grid rows
// are far below 2^53, so the float64 round-trip is exact.
func asUint(v any) (uint64, bool) {
	f, ok := v.(float64)
	if !ok || f < 0 || f != float64(uint64(f)) {
		return 0, false
	}
	return uint64(f), true
}

// asInt converts a decoded JSON number to int64.
func asInt(v any) (int64, bool) {
	f, ok := v.(float64)
	if !ok || f != float64(int64(f)) {
		return 0, false
	}
	return int64(f), true
}

// FrontierColumns lays out the frontier table appended after a full
// grid view: one row per non-dominated design point, grouped by trace.
func FrontierColumns() []report.Column {
	return []report.Column{
		{Name: "Trace", Head: "%-20s", Cell: "%-20s"},
		{Name: "Unit", Head: " %-20s", Cell: " %-20s"},
		{Name: "Configuration", Head: " %-36s", Cell: " %-36s"},
		{Name: "Miss rate", Head: "%10s", Cell: "%9.3f%%"},
		{Name: "Cost", Head: "%12s", Cell: "%12d"},
	}
}

// WriteFrontier appends the Pareto frontier of everything the collector
// saw — per trace, in stream order — as NDJSON lines stamped
// "exp":"pareto". Whoever owns the full grid view calls it (the plain
// single-process run and the coordinator both do, from the same parsed
// rows), which is what keeps their outputs byte-identical.
func (c *Collector) WriteFrontier(w io.Writer) error {
	if c.err != nil {
		return c.err
	}
	j := report.NewJSON(w)
	j.Exp = FrontierID
	j.BeginTable(FrontierID, FrontierColumns())
	for _, tag := range c.order {
		for _, p := range Frontier(c.pts[tag]) {
			j.Row(tag, p.Unit, p.Label, 100*p.MissRate(), p.Cost)
		}
	}
	return j.Err()
}

// Points returns the collected rows for one trace tag (tests use this
// to cross-check frontiers).
func (c *Collector) Points(tag string) []Point { return c.pts[tag] }

// Traces returns the trace tags seen, in stream order.
func (c *Collector) Traces() []string { return c.order }

// Err surfaces any sticky parse error.
func (c *Collector) Err() error { return c.err }

// mergeReader is one worker stream being merged: a scanner plus the
// buffered first line (and parsed trace index) of its current block.
type mergeReader struct {
	sc   *bufio.Scanner
	line []byte
	idx  int
	done bool
}

// advance loads the reader's next line, parsing its trace tag index.
func (m *mergeReader) advance() error {
	if !m.sc.Scan() {
		if err := m.sc.Err(); err != nil {
			return err
		}
		m.done = true
		return nil
	}
	m.line = append(m.line[:0], m.sc.Bytes()...)
	var tagged struct {
		Exp string `json:"exp"`
	}
	if err := json.Unmarshal(m.line, &tagged); err != nil {
		return fmt.Errorf("shard: malformed NDJSON line %q: %w", m.line, err)
	}
	idx, err := ParseTraceTag(tagged.Exp)
	if err != nil {
		return err
	}
	m.idx = idx
	return nil
}

// MergeStreams k-way merges the NDJSON streams of a sharded grid run
// back into canonical order and writes the result to w. Every line of a
// worker stream is stamped with its trace group's tag, and each stream
// carries its blocks in increasing global trace index (StreamNDJSON
// orders by result index), so a classic lookahead merge reconstructs
// the exact single-process byte stream. traces is the expected group
// count (from Enumerate); a missing or duplicated group is an error —
// the coordinator's check that its workers covered the grid exactly.
func MergeStreams(w io.Writer, streams []io.Reader, traces int) error {
	readers := make([]*mergeReader, 0, len(streams))
	for _, s := range streams {
		sc := bufio.NewScanner(s)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		m := &mergeReader{sc: sc}
		if err := m.advance(); err != nil {
			return err
		}
		if !m.done {
			readers = append(readers, m)
		}
	}
	next := 0
	for len(readers) > 0 {
		best := -1
		for i, m := range readers {
			if best < 0 || m.idx < readers[best].idx {
				best = i
			}
		}
		m := readers[best]
		if m.idx != next {
			if m.idx < next {
				return fmt.Errorf("shard: trace group %d emitted by more than one stream", m.idx)
			}
			return fmt.Errorf("shard: trace group %d missing from merged streams", next)
		}
		cur := m.idx
		for !m.done && m.idx == cur {
			if _, err := w.Write(append(m.line, '\n')); err != nil {
				return err
			}
			if err := m.advance(); err != nil {
				return err
			}
		}
		next++
		if m.done {
			readers = append(readers[:best], readers[best+1:]...)
		}
	}
	if next != traces {
		return fmt.Errorf("shard: merged %d trace groups, want %d", next, traces)
	}
	return nil
}
