// Package cas holds the two pieces the trace cache and the result cache
// share: a content-addressed directory of checksummed entries, and a
// single-flight memo bounded by an entry budget and a byte budget.
//
// An entry is a file named by the SHA-256 of a canonical key. It is laid
// out as follows, every field little-endian:
//
//	magic     the owner's magic string, which ends in a format version
//	uint32    key length K (at most 1 MiB)
//	K bytes   canonical key echo
//	uint64    payload length P
//	[32]byte  SHA-256 of the payload
//	P bytes   payload
//
// The key echo guards against hash collisions and lets a tool name an
// entry without knowing its key. Entries are written atomically (temp
// file and rename in the same directory) and verified on load; a damaged
// entry is deleted, so the caller regenerates it.
package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// maxKeyLen bounds the untrusted key-length field.
const maxKeyLen = 1 << 20

// Hash returns the hex SHA-256 of a canonical key: the filename stem of
// its entry.
func Hash(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// header encodes everything of an entry that precedes its payload.
func header(magic, canonical string, payload []byte) []byte {
	hdr := make([]byte, 0, len(magic)+4+len(canonical)+8+sha256.Size)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(canonical)))
	hdr = append(hdr, canonical...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	return append(hdr, sum[:]...)
}

// Decode parses and verifies one entry's bytes against magic, returning
// the key echo and the payload, which aliases raw. It is the one reader
// of entry bytes from outside the process: any bad magic, truncation,
// length mismatch or checksum mismatch is an error.
func Decode(magic string, raw []byte) (canonical string, payload []byte, err error) {
	if len(raw) < len(magic)+4 || string(raw[:len(magic)]) != magic {
		return "", nil, errors.New("cas: bad entry magic")
	}
	raw = raw[len(magic):]
	keyLen := binary.LittleEndian.Uint32(raw)
	raw = raw[4:]
	if keyLen > maxKeyLen || uint64(len(raw)) < uint64(keyLen)+8+sha256.Size {
		return "", nil, errors.New("cas: entry truncated in header")
	}
	canonical = string(raw[:keyLen])
	raw = raw[keyLen:]
	payloadLen := binary.LittleEndian.Uint64(raw)
	sum := raw[8 : 8+sha256.Size]
	payload = raw[8+sha256.Size:]
	if uint64(len(payload)) != payloadLen {
		return "", nil, fmt.Errorf("cas: entry payload is %d bytes, header says %d", len(payload), payloadLen)
	}
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return "", nil, errors.New("cas: entry payload checksum mismatch")
	}
	return canonical, payload, nil
}

// WriteFile writes one entry to path atomically: the entry lands in a
// temp file in the same directory, which is renamed into place, so a
// reader never observes a partial entry and racing writers each install
// a complete one. The header and the payload are written separately, so
// the payload is never copied. The temp file is removed on any error.
func WriteFile(path, magic, canonical string, payload []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("cas: writing entry: %w", err)
	}
	tmp := f.Name()
	if _, err = f.Write(header(magic, canonical, payload)); err == nil {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cas: writing entry: %w", err)
	}
	return nil
}

// Dir is a content-addressed directory of entries that share one
// filename extension and one magic. Concurrent writers and readers on
// one key are safe.
type Dir struct {
	root, ext, magic string
}

// Open returns the directory rooted at root, creating it if needed.
func Open(root, ext, magic string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("cas: opening %s: %w", root, err)
	}
	return &Dir{root: root, ext: ext, magic: magic}, nil
}

// File returns the entry filename for a canonical key.
func (d *Dir) File(canonical string) string {
	return filepath.Join(d.root, Hash(canonical)+d.ext)
}

// Load returns the payload stored under canonical. An absent entry is an
// os.IsNotExist error. Any other failure (an unreadable file, bad magic,
// truncation, a checksum mismatch or a wrong key echo) removes the file
// and returns the error, so the caller counts a corrupt entry and the
// next Save starts clean.
func (d *Dir) Load(canonical string) ([]byte, error) {
	p := d.File(canonical)
	raw, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, err
	}
	if err == nil {
		var key string
		var payload []byte
		if key, payload, err = Decode(d.magic, raw); err == nil && key != canonical {
			err = errors.New("cas: entry key echo mismatch")
		}
		if err == nil {
			return payload, nil
		}
	}
	// Removal failure is irrelevant: the entry stays a miss either way.
	os.Remove(p)
	return nil, err
}

// Save stores payload under canonical, replacing any existing entry.
func (d *Dir) Save(canonical string, payload []byte) error {
	return WriteFile(d.File(canonical), d.magic, canonical, payload)
}
