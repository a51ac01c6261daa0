package trace

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"texcache/internal/cas"
)

// FuzzReadFile hardens the trace file reader: ReadFile never panics on
// arbitrary bytes, an accepted trace's cursor yields exactly Len()
// addresses, and writing the returned key and trace back reads again as
// the same key and addresses.
func FuzzReadFile(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.trace")
	if err := WriteFile(seed, testKey(), CompactFromAddrs(texturedAddrs(100))); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(storeMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.trace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		key, c, err := ReadFile(path)
		if err != nil {
			return
		}
		addrs := drain(c)
		if len(addrs) != c.Len() {
			t.Fatalf("cursor yielded %d addresses, Len() = %d", len(addrs), c.Len())
		}
		// WriteFile takes a Key; an arbitrary key echo goes back through
		// the same envelope writer WriteFile uses.
		out := filepath.Join(t.TempDir(), "out.trace")
		if err := cas.WriteFile(out, storeMagic, key, c.data); err != nil {
			t.Fatal(err)
		}
		key2, c2, err := ReadFile(out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if key2 != key || !slices.Equal(drain(c2), addrs) {
			t.Fatal("write-back changed the key or the addresses")
		}
	})
}

// drain collects every address a fresh cursor yields.
func drain(c *Compact) []uint64 {
	var out []uint64
	cur := c.Cursor()
	for b := cur.Next(); b != nil; b = cur.Next() {
		out = append(out, b...)
	}
	return out
}
