package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
)

// FuzzMergeStreams hardens the merge of worker streams, the bytes a
// coordinator reads from other processes. Arbitrary bytes split on NUL
// into one to four streams, and traces is the group count the merge
// expects. MergeStreams never panics, and it succeeds exactly when every
// line carries a trace tag, each stream holds each of its groups in one
// block in increasing order, and the streams hold groups 0..traces-1
// once each between them. On success the output is every input line
// once, in nondecreasing trace index.
func FuzzMergeStreams(f *testing.F) {
	line := func(idx int, text string) string {
		return `{"exp":"t0000` + string(rune('0'+idx)) + `-aaaaaaaaaaaa","type":"note","text":"` + text + `"}` + "\n"
	}
	g0 := line(0, "a") + line(0, "b")
	g1 := line(1, "c")
	g2 := line(2, "d") + line(2, "e")
	f.Add([]byte(g0+g1+g2), uint8(3))
	f.Add([]byte(g0+g2+"\x00"+g1), uint8(3))
	f.Add([]byte(g0+"\x00"+g1+"\x00"+g2+"\x00"), uint8(3))
	f.Add([]byte(g0+g1+"\x00"+g1+g2), uint8(3))                // duplicated group
	f.Add([]byte(g0+"\x00"+g2), uint8(3))                      // missing group
	f.Add([]byte(g0+g1+g0), uint8(2))                          // group split in two blocks
	f.Add([]byte(g1+g0), uint8(2))                             // blocks out of order
	f.Add([]byte(g0+g1+g2), uint8(4))                          // fewer groups than expected
	f.Add([]byte(g0+`{"exp":"t00001-aaaa","type":`), uint8(2)) // torn tail
	f.Add([]byte(strings.ReplaceAll(g0+g1, "\n", "\r\n")), uint8(2))
	f.Add([]byte(g0+"\n"+g1), uint8(2))
	f.Add([]byte(`{"exp":"x"}`+"\n"), uint8(1))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, traces uint8) {
		parts := bytes.SplitN(data, []byte{0}, 4)
		streams := make([]io.Reader, len(parts))
		for i, p := range parts {
			streams[i] = bytes.NewReader(p)
		}
		var out bytes.Buffer
		err := MergeStreams(&out, streams, int(traces))

		var in [][]byte
		wantOK := true
		owner := map[int]int{} // group index -> stream holding it
		for s, p := range parts {
			last := -1
			for _, l := range scanLines(p) {
				in = append(in, l)
				idx, ok := lineIndex(l)
				if !ok {
					wantOK = false
					continue
				}
				if idx == last {
					continue
				}
				if _, seen := owner[idx]; seen || idx < last {
					wantOK = false
				}
				owner[idx], last = s, idx
			}
		}
		for g := range int(traces) {
			if _, ok := owner[g]; !ok {
				wantOK = false
			}
		}
		if len(owner) != int(traces) {
			wantOK = false
		}
		if (err == nil) != wantOK {
			t.Fatalf("MergeStreams error %v, want success %v", err, wantOK)
		}
		if err != nil {
			return
		}

		got := scanLines(out.Bytes())
		if out.Len() > 0 && out.Bytes()[out.Len()-1] != '\n' {
			t.Fatal("merged stream does not end in a newline")
		}
		prev := -1
		for _, l := range got {
			idx, _ := lineIndex(l)
			if idx < prev {
				t.Fatalf("trace index %d after %d", idx, prev)
			}
			prev = idx
		}
		sortLines := func(ls [][]byte) [][]byte {
			ls = slices.Clone(ls)
			slices.SortFunc(ls, bytes.Compare)
			return ls
		}
		if !slices.EqualFunc(sortLines(got), sortLines(in), bytes.Equal) {
			t.Fatalf("merged lines differ from the input lines:\n%q\nwant\n%q", got, in)
		}
	})
}

// scanLines splits b as bufio.ScanLines does: on newlines, dropping one
// trailing carriage return per line and an empty final line.
func scanLines(b []byte) [][]byte {
	ls := bytes.Split(b, []byte{'\n'})
	if len(ls[len(ls)-1]) == 0 {
		ls = ls[:len(ls)-1]
	}
	for i, l := range ls {
		ls[i] = bytes.TrimSuffix(l, []byte{'\r'})
	}
	return ls
}

// lineIndex reads the trace index a worker line is stamped with.
func lineIndex(l []byte) (int, bool) {
	var tagged struct {
		Exp string `json:"exp"`
	}
	if json.Unmarshal(l, &tagged) != nil {
		return 0, false
	}
	idx, err := ParseTraceTag(tagged.Exp)
	return idx, err == nil
}
