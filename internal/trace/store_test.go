package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"texcache/internal/obs"
	"texcache/internal/raster"
	"texcache/internal/texture"
)

func testKey() Key {
	return Key{
		Scene:     "goblet",
		Scale:     4,
		Layout:    "{Kind:blocked8 BlockW:8}",
		Traversal: "{Order:horizontal}",
		Version:   CodecVersion,
	}
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreSaveLoad(t *testing.T) {
	s := openStore(t)
	k := testKey()
	if _, ok := s.Load(k); ok {
		t.Fatal("empty store reported a hit")
	}
	want := CompactFromAddrs(texturedAddrs(60000))
	if err := s.Save(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(k)
	if !ok {
		t.Fatal("saved entry missed")
	}
	if got.Len() != want.Len() {
		t.Fatalf("loaded %d addresses, want %d", got.Len(), want.Len())
	}
	ga, wa := got.Decode(), want.Decode()
	for i := range wa.Addrs {
		if ga.Addrs[i] != wa.Addrs[i] {
			t.Fatalf("address %d: %d != %d", i, ga.Addrs[i], wa.Addrs[i])
		}
	}
}

func TestStoreOpenFailure(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "store")); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
}

func TestStoreKeyHashDistinguishesFields(t *testing.T) {
	base := testKey()
	seen := map[string]string{base.Hash(): "base"}
	variants := map[string]Key{
		"scene":     {Scene: "quake", Scale: 4, Layout: base.Layout, Traversal: base.Traversal, Version: base.Version},
		"scale":     {Scene: "goblet", Scale: 2, Layout: base.Layout, Traversal: base.Traversal, Version: base.Version},
		"layout":    {Scene: "goblet", Scale: 4, Layout: "{Kind:nonblocked}", Traversal: base.Traversal, Version: base.Version},
		"traversal": {Scene: "goblet", Scale: 4, Layout: base.Layout, Traversal: "{Order:vertical}", Version: base.Version},
		"version":   {Scene: "goblet", Scale: 4, Layout: base.Layout, Traversal: base.Traversal, Version: "txc1"},
	}
	for field, k := range variants {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("changing %s collides with %s", field, prev)
		}
		seen[h] = field
	}
}

// TestStoreStaleVersionMisses pins the regeneration path for format
// bumps: an entry saved under an older codec version is simply invisible
// to the current key, not an error.
func TestStoreStaleVersionMisses(t *testing.T) {
	s := openStore(t)
	old := testKey()
	old.Version = "txc1"
	if err := s.Save(old, CompactFromAddrs(texturedAddrs(100))); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(testKey()); ok {
		t.Fatal("current-version key loaded a stale-version entry")
	}
	if _, ok := s.Load(old); !ok {
		t.Fatal("stale entry not loadable under its own key")
	}
}

// corrupt loads the entry file, applies f, and writes it back.
func corrupt(t *testing.T, s *Store, k Key, f func([]byte) []byte) {
	t.Helper()
	p := s.entries.File(k.canonical())
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, f(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCorruptionIsSilentMiss is the corruption table for the entry
// envelope: every damaged entry is a miss that the store counts as
// corrupt (the load's error is not IsNotExist), its file is removed, and
// the slot is reusable.
func TestStoreCorruptionIsSilentMiss(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()
	corrupted := reg.Sub("trace").Sub("store").Counter("corrupt")

	k := testKey()
	cases := []struct {
		name string
		f    func([]byte) []byte
	}{
		{"truncated header", func(raw []byte) []byte { return raw[:10] }},
		{"truncated payload", func(raw []byte) []byte { return raw[:len(raw)-7] }},
		{"empty file", func(raw []byte) []byte { return nil }},
		{"bad magic", func(raw []byte) []byte { raw[0] = 'Z'; return raw }},
		{"flipped payload bit", func(raw []byte) []byte { raw[len(raw)-1] ^= 0x40; return raw }},
		{"huge key length", func(raw []byte) []byte { raw[8], raw[9], raw[10], raw[11] = 0xff, 0xff, 0xff, 0xff; return raw }},
		{"wrong key echo", func(raw []byte) []byte { raw[12+6] ^= 0x01; return raw }},
		{"trailing garbage", func(raw []byte) []byte { return append(raw, 0xAA) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			if err := s.Save(k, CompactFromAddrs(texturedAddrs(40000))); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s, k, tc.f)
			before := corrupted.Value()
			if _, ok := s.Load(k); ok {
				t.Fatal("corrupted entry loaded")
			}
			if corrupted.Value() != before+1 {
				t.Error("corrupted entry not counted as corrupt")
			}
			// The damaged file must be gone so regeneration starts clean.
			if _, err := os.Stat(s.entries.File(k.canonical())); !os.IsNotExist(err) {
				t.Errorf("corrupted entry not deleted (stat err: %v)", err)
			}
			// And the slot is reusable.
			if err := s.Save(k, CompactFromAddrs(texturedAddrs(100))); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Load(k); !ok {
				t.Fatal("regenerated entry missed")
			}
		})
	}
}

// TestStoreConcurrentWriters races writers and readers on one key under
// the race detector: every load must observe either a miss or one
// writer's complete, checksum-valid entry.
func TestStoreConcurrentWriters(t *testing.T) {
	s := openStore(t)
	k := testKey()
	traces := make([]*Compact, 4)
	for i := range traces {
		traces[i] = CompactFromAddrs(texturedAddrs(10000 + i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := s.Save(k, traces[w]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if c, ok := s.Load(k); ok {
					if c.Len() < 10000 || c.Len() > 10003 {
						t.Errorf("load observed a torn entry: %d addresses", c.Len())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	c, ok := s.Load(k)
	if !ok {
		t.Fatal("no entry after concurrent writes")
	}
	if c.Len() < 10000 || c.Len() > 10003 {
		t.Fatalf("final entry holds %d addresses", c.Len())
	}
	// No temp files may survive the race.
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		for _, e := range ents {
			t.Errorf("leftover store file: %s", e.Name())
		}
	}
}

func TestStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()

	s := openStore(t)
	k := testKey()
	s.Load(k)
	c := CompactFromAddrs(texturedAddrs(20000))
	if err := s.Save(k, c); err != nil {
		t.Fatal(err)
	}
	s.Load(k)
	corrupt(t, s, k, func(raw []byte) []byte { raw[len(raw)-1] ^= 0x40; return raw })
	if _, ok := s.Load(k); ok {
		t.Fatal("corrupted entry loaded")
	}
	// The damaged entry is gone, so the re-rendered trace takes the slot.
	if err := s.Save(k, c); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Load(k); !ok || got.Len() != c.Len() {
		t.Fatal("re-saved entry missed")
	}

	st := reg.Sub("trace").Sub("store")
	if got := st.Counter("hits").Value(); got != 2 {
		t.Errorf("store hits = %d, want 2", got)
	}
	if got := st.Counter("misses").Value(); got != 2 {
		t.Errorf("store misses = %d, want 2", got)
	}
	if got := st.Counter("corrupt").Value(); got != 1 {
		t.Errorf("store corrupt = %d, want 1", got)
	}
	if got := st.Counter("saves").Value(); got != 2 {
		t.Errorf("store saves = %d, want 2", got)
	}
	if got := st.Counter("bytes_written").Value(); got != 2*uint64(c.SizeBytes()) {
		t.Errorf("store bytes_written = %d, want %d", got, 2*c.SizeBytes())
	}
}

// TestStoreRejectsMalformedPayload: an entry whose envelope checks out
// but whose payload ends mid-varint is corrupt, counted as such, and
// removed.
func TestStoreRejectsMalformedPayload(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Attach(reg)
	defer obs.Detach()

	s := openStore(t)
	k := testKey()
	c := CompactFromAddrs(texturedAddrs(100))
	bad := &Compact{data: endMidVarint(c.data), count: c.count}
	if err := s.Save(k, bad); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k); ok {
		t.Fatal("malformed payload loaded")
	}
	if _, err := os.Stat(s.entries.File(k.canonical())); !os.IsNotExist(err) {
		t.Errorf("malformed entry not deleted (stat err: %v)", err)
	}
	if got := reg.Sub("trace").Sub("store").Counter("corrupt").Value(); got != 1 {
		t.Errorf("store corrupt = %d, want 1", got)
	}
}

// TestKeyFor pins the canonical key of a rendered stream: the two structs
// render via %+v, and the codec version is the current one.
func TestKeyFor(t *testing.T) {
	k := KeyFor("goblet", 4, texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}, raster.Traversal{Order: raster.ColumnMajor})
	want := "scene=goblet\nscale=4\nlayout=" + fmt.Sprintf("%+v", texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 8}) +
		"\ntraversal=" + fmt.Sprintf("%+v", raster.Traversal{Order: raster.ColumnMajor}) +
		"\nversion=" + CodecVersion + "\n"
	if got := k.canonical(); got != want {
		t.Errorf("canonical key\n%q\nwant\n%q", got, want)
	}
}

// TestWriteFileMatchesStore: a file written by WriteFile is byte-identical
// to the store's entry for the same key, and ReadFile returns the key and
// the addresses.
func TestWriteFileMatchesStore(t *testing.T) {
	s := openStore(t)
	k := testKey()
	c := CompactFromAddrs(texturedAddrs(30000))
	if err := s.Save(k, c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.trace")
	if err := WriteFile(path, k, c); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(s.entries.File(k.canonical()))
	if err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, written) {
		t.Fatal("WriteFile bytes differ from the store entry")
	}
	key, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if key != k.canonical() {
		t.Errorf("ReadFile key %q, want %q", key, k.canonical())
	}
	ga, wa := got.Decode(), c.Decode()
	if got.Len() != c.Len() || !slices.Equal(ga.Addrs, wa.Addrs) {
		t.Fatal("ReadFile addresses differ from the written trace")
	}
}

func TestReadFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := ReadFile(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Errorf("missing file err = %v, want not-exist", err)
	}
	path := filepath.Join(dir, "t.trace")
	c := CompactFromAddrs(texturedAddrs(1000))
	if err := WriteFile(path, testKey(), c); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(path); err == nil {
		t.Error("ReadFile accepted a flipped payload byte")
	}
	bad := &Compact{data: endMidVarint(c.data)}
	if err := WriteFile(path, testKey(), bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(path); err == nil {
		t.Error("ReadFile accepted a payload ending mid-varint")
	}
}
