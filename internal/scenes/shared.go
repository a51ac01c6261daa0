package scenes

import (
	"context"
	"sync"
	"unsafe"

	"texcache/internal/cas"
	"texcache/internal/geom"
	"texcache/internal/obs"
)

// Budgets for the shared-scene memo. Four scenes at scale 1 take about
// 105MB of texels and triangles (Flight alone about 88MB) and at scale 4
// about 14MB, so a process that renders every scene at a few scales keeps
// them all; one that sees many scales evicts the least recently used.
// Eviction is never a correctness event: the next call builds the scene
// again, identically.
const (
	sharedMaxEntries = 16
	sharedMaxBytes   = 256 << 20
)

// sharedKey is a scene's identity: its name and the scale it was built
// at, normalized so every scale below 1 maps to 1 as the builders do.
type sharedKey struct {
	name  string
	scale int
}

// The memo behind Shared is created on first use, so that nothing runs
// at package init.
var (
	sharedOnce sync.Once
	sharedMemo *cas.Memo[sharedKey, *Scene]
)

// sharedScenes returns the memo behind Shared, creating it on first use.
func sharedScenes() *cas.Memo[sharedKey, *Scene] {
	sharedOnce.Do(func() { sharedMemo = newSharedMemo(sharedMaxEntries, sharedMaxBytes) })
	return sharedMemo
}

// newSharedMemo returns an empty scene memo with the given budgets.
func newSharedMemo(maxEntries int, maxBytes int64) *cas.Memo[sharedKey, *Scene] {
	return cas.NewMemo[sharedKey, *Scene](maxEntries, maxBytes, func() {
		obs.Default().Sub("scenes").Sub("shared").Counter("evictions").Inc()
	})
}

// Shared returns the named scene at the given scale from a bounded,
// single-flight memo, building it on the first call for that (name,
// scale) and handing every later caller the same *Scene. The shared
// scene is read-only: Render, Trace, TraceParallel and Layouts only read
// a scene, so any number of goroutines may render it at once, but no
// caller may modify it. A caller that changes a scene takes its own from
// ByNameChecked instead. An unknown name returns *UnknownSceneError on
// every call and is never memoized. A call waiting on another caller's
// build returns ctx.Err() when ctx ends first; the build goes on.
func Shared(ctx context.Context, name string, scale int) (*Scene, error) {
	return sharedFrom(ctx, sharedScenes(), name, scale)
}

// sharedFrom is Shared over the given memo.
func sharedFrom(ctx context.Context, m *cas.Memo[sharedKey, *Scene], name string, scale int) (*Scene, error) {
	build, ok := Builders()[name]
	if !ok {
		return nil, &UnknownSceneError{Name: name}
	}
	scale = max(scale, 1)
	s, _, err := m.Do(ctx, sharedKey{name: name, scale: scale},
		func() (*Scene, int64, error) {
			s := build(scale)
			return s, s.residentBytes(), nil
		})
	return s, err
}

// residentBytes is what a scene holds in memory, as the shared memo
// charges it: the texels of every Mip Map level plus every triangle of
// the draw list.
func (s *Scene) residentBytes() int64 {
	return int64(s.TextureStorageBytes()) + int64(s.Triangles())*int64(unsafe.Sizeof(geom.Triangle{}))
}
