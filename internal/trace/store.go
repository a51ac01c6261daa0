package trace

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"texcache/internal/cas"
	"texcache/internal/obs"
	"texcache/internal/raster"
	"texcache/internal/texture"
)

// CodecVersion names the encoded trace format. It participates in every
// store key, so bumping it (when the encoding or the renderer's address
// generation changes) orphans old files rather than misreading them.
const CodecVersion = "txc2"

// Key identifies one rendered address stream for the store: everything
// the stream depends on, and nothing it doesn't (cache parameters never
// appear — that is the whole point of trace-driven simulation). Layout
// and Traversal are caller-canonicalized strings; two keys are the same
// entry iff every field matches.
type Key struct {
	Scene     string
	Scale     int
	Layout    string
	Traversal string
	Version   string
}

// KeyFor is the store key of the stream a scene renders at scale under
// layout and traversal. The two structs render via %+v, so any new field
// (which would change the address stream) changes the key.
func KeyFor(scene string, scale int, layout texture.LayoutSpec, traversal raster.Traversal) Key {
	return Key{
		Scene:     scene,
		Scale:     scale,
		Layout:    fmt.Sprintf("%+v", layout),
		Traversal: fmt.Sprintf("%+v", traversal),
		Version:   CodecVersion,
	}
}

// canonical renders the key as the exact byte string that is hashed for
// the filename and embedded in the file for verification.
func (k Key) canonical() string {
	return "scene=" + k.Scene +
		"\nscale=" + strconv.Itoa(k.Scale) +
		"\nlayout=" + k.Layout +
		"\ntraversal=" + k.Traversal +
		"\nversion=" + k.Version + "\n"
}

// Hash returns the content address of the key: the hex SHA-256 of its
// canonical form, which is also the store filename stem.
func (k Key) Hash() string { return cas.Hash(k.canonical()) }

// storeMagic begins every store entry: "TXSTORE" then format version 3.
// Version 2 also carried the address count; version 3 recovers it from
// the payload, where it sits under the checksum.
const storeMagic = "TXSTORE\x03"

// Store is a content-addressed directory of encoded traces: cas entries
// whose payload is the raw Compact bytes. Any damaged or unreadable entry
// is treated as a miss and deleted, so corruption silently regenerates.
// Concurrent writers racing on one key are safe: either winner's bytes
// are a valid entry for the key.
type Store struct {
	dir     string
	entries *cas.Dir
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	entries, err := cas.Open(dir, ".trace", storeMagic)
	if err != nil {
		return nil, fmt.Errorf("trace: opening store: %w", err)
	}
	return &Store{dir: dir, entries: entries}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Load returns the stored trace for key, or (nil, false) on any miss:
// absent, truncated, checksum mismatch, wrong key echo, or undecodable.
// Damaged entries are deleted so the regenerated trace can take the
// slot. Load never fails loudly — the caller always holds the fallback
// (render and Save).
func (s *Store) Load(k Key) (*Compact, bool) {
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	canonical := k.canonical()
	payload, err := s.entries.Load(canonical)
	var c *Compact
	if err == nil {
		if c, err = compactFromBytes(payload); err != nil {
			os.Remove(s.entries.File(canonical))
		}
	}
	if reg != nil {
		st := reg.Sub("trace").Sub("store")
		st.Timer("load").ObserveSince(start)
		if err == nil {
			st.Counter("hits").Inc()
		} else {
			st.Counter("misses").Inc()
			if !os.IsNotExist(err) {
				st.Counter("corrupt").Inc()
			}
		}
	}
	return c, err == nil
}

// Save writes the trace under key, atomically, so a reader never
// observes a partial entry and racing writers each install a complete
// one.
func (s *Store) Save(k Key, c *Compact) error {
	reg := obs.Default()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	err := s.entries.Save(k.canonical(), c.data)
	if reg != nil {
		st := reg.Sub("trace").Sub("store")
		st.Timer("save").ObserveSince(start)
		if err == nil {
			st.Counter("saves").Inc()
			st.Counter("bytes_written").Add(uint64(c.SizeBytes()))
		}
	}
	return err
}

// WriteFile writes c to path as a store entry under key: the same bytes
// a Store rooted anywhere writes for that key.
func WriteFile(path string, k Key, c *Compact) error {
	return cas.WriteFile(path, storeMagic, k.canonical(), c.data)
}

// ReadFile reads a store entry from path, returning its canonical key and
// its trace. It rejects any file a Store would not load.
func ReadFile(path string) (string, *Compact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	canonical, payload, err := cas.Decode(storeMagic, raw)
	if err != nil {
		return "", nil, fmt.Errorf("trace: reading %s: %w", path, err)
	}
	c, err := compactFromBytes(payload)
	if err != nil {
		return "", nil, fmt.Errorf("trace: reading %s: %w", path, err)
	}
	return canonical, c, nil
}
