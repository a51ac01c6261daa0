package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"texcache/internal/engine"
	"texcache/internal/exp"
	"texcache/internal/raster"
	"texcache/internal/scenes"
	"texcache/internal/texture"
	"texcache/internal/trace"
)

func TestParseLayout(t *testing.T) {
	cases := []struct {
		name string
		kind texture.LayoutKind
	}{
		{"nonblocked", texture.NonBlockedKind},
		{"blocked", texture.BlockedKind},
		{"padded", texture.PaddedBlockedKind},
		{"williams", texture.WilliamsKind},
	}
	for _, c := range cases {
		spec, err := parseLayout(c.name, 8, 4)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if spec.Kind != c.kind {
			t.Errorf("%s -> %v", c.name, spec.Kind)
		}
	}
	if _, err := parseLayout("bogus", 8, 4); err == nil {
		t.Error("bogus layout accepted")
	}
}

func TestRecordInfoSimRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	if err := record([]string{"-scene", "goblet", "-scale", "8", "-o", path}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}
	if err := info([]string{path}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := sim([]string{"-size", "8192", "-line", "64", "-ways", "2", path}); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRecordErrors(t *testing.T) {
	if err := record([]string{"-scene", "goblet"}); err == nil {
		t.Error("missing -o accepted")
	}
	if err := record([]string{"-scene", "nope", "-o", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("unknown scene accepted")
	}
	if err := record([]string{"-scene", "goblet", "-order", "diagonal",
		"-o", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("bad order accepted")
	}
}

func TestSimErrors(t *testing.T) {
	if err := sim([]string{"-size", "1000", "/nonexistent"}); err == nil {
		t.Error("missing file / bad size accepted")
	}
	if err := sim([]string{}); err == nil {
		t.Error("no file accepted")
	}
}

func TestInfoErrors(t *testing.T) {
	if err := info([]string{}); err == nil {
		t.Error("no file accepted")
	}
	if err := info([]string{"/nonexistent"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLocateSubcommand(t *testing.T) {
	if err := locate([]string{"-scene", "goblet", "-scale", "8", "0", "64"}); err != nil {
		t.Fatalf("locate: %v", err)
	}
	if err := locate([]string{"-scene", "goblet", "-scale", "8"}); err == nil {
		t.Error("no addresses accepted")
	}
	if err := locate([]string{"-scene", "goblet", "-scale", "8", "zzz"}); err == nil {
		t.Error("bad address accepted")
	}
	if err := locate([]string{"-scene", "nope", "1"}); err == nil {
		t.Error("unknown scene accepted")
	}
}

// storeEntry renders goblet at scale 8 through an engine trace cache
// backed by a store, as texsim -trace-dir does, and returns the path of
// the one entry it writes.
func storeEntry(t *testing.T, layout texture.LayoutSpec, trav raster.Traversal) string {
	t.Helper()
	dir := t.TempDir()
	store, err := trace.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tc := engine.NewTraceCache()
	tc.Store = store
	key := exp.TraceKey{Scene: "goblet", Layout: layout, Traversal: trav}
	if _, err := tc.SceneTrace(context.Background(), key, 8); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, trace.KeyFor("goblet", 8, layout, trav).Hash()+".trace")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("store entry for the key: %v", err)
	}
	return path
}

// TestRecordMatchesStoreEntry: a recorded file is byte-identical to the
// store entry the engine writes for the same scene, scale, layout and
// traversal, and info and sim read an entry copied out of a store.
func TestRecordMatchesStoreEntry(t *testing.T) {
	s, err := scenes.ByNameChecked("goblet", 8)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parseLayout("blocked", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	entry := storeEntry(t, spec, s.DefaultTraversal())

	recorded := filepath.Join(t.TempDir(), "g.trace")
	if err := record([]string{"-scene", "goblet", "-scale", "8", "-layout", "blocked", "-block", "8", "-o", recorded}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(recorded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recorded file (%d bytes) differs from the store entry (%d bytes)", len(got), len(want))
	}

	copied := filepath.Join(t.TempDir(), filepath.Base(entry))
	if err := os.WriteFile(copied, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := info([]string{copied}); err != nil {
		t.Errorf("info on a store entry: %v", err)
	}
	if err := sim([]string{"-size", "8192", "-line", "64", "-ways", "2", copied}); err != nil {
		t.Errorf("sim on a store entry: %v", err)
	}
}

// TestInfoSimRejectCorruptEntry: a flipped payload byte fails the
// checksum, so neither info nor sim reads the trace.
func TestInfoSimRejectCorruptEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := record([]string{"-scene", "goblet", "-scale", "8", "-o", path}); err != nil {
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
	if err := info([]string{path}); err == nil {
		t.Error("info accepted a flipped payload byte")
	}
	if err := sim([]string{path}); err == nil {
		t.Error("sim accepted a flipped payload byte")
	}
}
