package cas

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testMagic = "TXTEST\x01"

func openDir(t *testing.T) *Dir {
	t.Helper()
	d, err := Open(t.TempDir(), ".entry", testMagic)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

func TestDirSaveLoad(t *testing.T) {
	d := openDir(t)
	const key = "scene=goblet\nscale=4\n"
	if _, err := d.Load(key); !os.IsNotExist(err) {
		t.Fatalf("empty dir load err = %v, want not-exist", err)
	}
	want := testPayload(5000)
	if err := d.Save(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := d.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("loaded payload differs from saved")
	}
	if name := filepath.Base(d.File(key)); name != Hash(key)+".entry" {
		t.Errorf("entry file %q, want <hash>.entry", name)
	}
	// The empty payload is a valid entry too.
	if err := d.Save("empty", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Load("empty"); err != nil || len(got) != 0 {
		t.Fatalf("empty payload loaded as %d bytes, err %v", len(got), err)
	}
}

func TestOpenFailure(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "store"), ".entry", testMagic); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
}

// TestDirLoadRejectsWrongKey: an intact entry whose key echo differs
// from the requested key is a removed, non-IsNotExist miss. Decode's own
// rejections are the seeds of FuzzDecode; the trace store's corruption
// table drives all of them through Load.
func TestDirLoadRejectsWrongKey(t *testing.T) {
	d := openDir(t)
	if err := WriteFile(d.File("wanted"), testMagic, "other", testPayload(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load("wanted"); err == nil || os.IsNotExist(err) {
		t.Fatalf("wrong key echo load err = %v, want a corruption error", err)
	}
	if _, err := os.Stat(d.File("wanted")); !os.IsNotExist(err) {
		t.Errorf("entry with a wrong key echo not deleted (stat err: %v)", err)
	}
}

// TestDecodeRoundTrip pins the layout: Decode inverts the encoding, and
// a wrong magic of the same length is rejected.
func TestDecodeRoundTrip(t *testing.T) {
	payload := testPayload(300)
	raw := append(header(testMagic, "k", payload), payload...)
	key, got, err := Decode(testMagic, raw)
	if err != nil || key != "k" || !bytes.Equal(got, payload) {
		t.Fatalf("Decode = %q, %d bytes, %v", key, len(got), err)
	}
	if _, _, err := Decode("TXTEST\x02", raw); err == nil {
		t.Error("Decode accepted another format version")
	}
}

// TestWriteFileLeavesNoTempFile: a failed write removes its temp file.
func TestWriteFileLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	// Renaming a file onto a non-empty directory fails.
	target := filepath.Join(dir, "entry")
	if err := os.MkdirAll(filepath.Join(target, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, testMagic, "k", testPayload(10)); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// FuzzDecode hardens the one reader of untrusted entry bytes: it never
// panics, and an accepted entry is exactly the encoding of the key and
// payload it returned, so no byte string has two readings. The seeds
// include each kind of rejection: truncation, a payload checksum
// mismatch and bad magic.
func FuzzDecode(f *testing.F) {
	payload := testPayload(64)
	valid := append(header(testMagic, "scene=goblet\nscale=4\n", payload), payload...)
	f.Add(valid)
	for _, n := range []int{len(valid) - 1, len(valid) / 2, len(testMagic) + 4, 3} {
		f.Add(valid[:n])
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(testMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		key, payload, err := Decode(testMagic, raw)
		if err != nil {
			return
		}
		if enc := append(header(testMagic, key, payload), payload...); !bytes.Equal(enc, raw) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(raw), len(enc))
		}
	})
}
