package scenes

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"texcache/internal/cache"
	"texcache/internal/cas"
	"texcache/internal/raster"
	"texcache/internal/texture"
)

// TestSharedConcurrentRendersMatchFresh renders one shared scene from
// several goroutines at once, through the tile-parallel path at one and
// two workers and through a serial Render with an OnAccess consumer,
// and checks that every trace equals a fresh scene's. Under -race it
// also checks that rendering writes nothing shared.
func TestSharedConcurrentRendersMatchFresh(t *testing.T) {
	layout := texture.LayoutSpec{Kind: texture.BlockedKind, BlockW: 4}
	for _, tc := range []struct {
		name string
		trav raster.Traversal
	}{
		{"town", raster.Traversal{Order: raster.HilbertOrder}},
		{"goblet", raster.Traversal{Order: raster.RowMajor}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _, err := byName(t, tc.name, testScale).Trace(layout, tc.trav)
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg     sync.WaitGroup
				mu     sync.Mutex
				traces = map[string][]uint64{}
			)
			record := func(label string, addrs []uint64, err error) {
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					t.Errorf("%s: %v", label, err)
				}
				traces[label] = addrs
			}
			scenesSeen := make([]*Scene, 3)
			for i, label := range []string{"workers=1", "workers=2", "serial+OnAccess"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s, err := Shared(context.Background(), tc.name, testScale)
					if err != nil {
						record(label, nil, err)
						return
					}
					scenesSeen[i] = s
					switch i {
					case 0, 1:
						tr, _, err := s.TraceParallel(layout, tc.trav, i+1)
						if err != nil {
							record(label, nil, err)
							return
						}
						record(label, tr.Addrs, nil)
					default:
						tr := cache.NewTrace(0)
						touches := 0
						_, err := s.Render(RenderOptions{
							Layout: layout, Traversal: tc.trav, Sink: tr,
							OnAccess: func(texture.AccessEvent) { touches++ },
						})
						if err == nil && touches == 0 {
							t.Errorf("%s: OnAccess saw no texel touches", label)
						}
						record(label, tr.Addrs, err)
					}
				}()
			}
			wg.Wait()
			for label, got := range traces {
				if !slices.Equal(got, want.Addrs) {
					t.Errorf("%s: shared-scene trace (%d addrs) differs from a fresh scene's (%d)",
						label, len(got), want.Len())
				}
			}
			for _, s := range scenesSeen[1:] {
				if s != scenesSeen[0] {
					t.Errorf("concurrent Shared calls returned different scenes")
				}
			}
		})
	}
}

// TestSharedMemoWithinBudgets cycles the memo through more scales than
// it may hold, under budgets where each binds, and checks after every
// call that it holds at most its entry budget and, beyond a sole entry,
// at most its byte budget.
func TestSharedMemoWithinBudgets(t *testing.T) {
	check := func(t *testing.T, m *cas.Memo[sharedKey, *Scene], maxEntries int, maxBytes int64) {
		t.Helper()
		if n := m.Len(); n > maxEntries {
			t.Fatalf("memo holds %d scenes, entry budget %d", n, maxEntries)
		}
		if b := m.Bytes(); b > maxBytes && m.Len() > 1 {
			t.Fatalf("memo holds %d bytes in %d scenes, byte budget %d", b, m.Len(), maxBytes)
		}
	}

	t.Run("small budgets", func(t *testing.T) {
		const maxEntries = 3
		maxBytes := 2 * Goblet(testScale).residentBytes()
		m := newSharedMemo(maxEntries, maxBytes)
		for scale := testScale; scale < testScale+12; scale++ {
			for _, name := range []string{"goblet", "guitar"} {
				s, err := sharedFrom(context.Background(), m, name, scale)
				if err != nil || s == nil {
					t.Fatalf("sharedFrom(%s, %d) = %v, %v", name, scale, s, err)
				}
				check(t, m, maxEntries, maxBytes)
			}
		}
		if m.Evictions() == 0 {
			t.Fatal("cycling 24 scenes through 3 slots evicted nothing")
		}
	})

	t.Run("package budgets", func(t *testing.T) {
		for scale := testScale; scale <= testScale+sharedMaxEntries+4; scale++ {
			if _, err := Shared(context.Background(), "goblet", scale); err != nil {
				t.Fatal(err)
			}
			check(t, sharedScenes(), sharedMaxEntries, sharedMaxBytes)
		}
	})
}

// TestSharedUnknownSceneNotMemoized checks that an unknown name errors
// on every call and leaves no entry behind.
func TestSharedUnknownSceneNotMemoized(t *testing.T) {
	m := newSharedMemo(sharedMaxEntries, sharedMaxBytes)
	for i := 0; i < 3; i++ {
		s, err := sharedFrom(context.Background(), m, "nope", testScale)
		var ue *UnknownSceneError
		if s != nil || !errors.As(err, &ue) || ue.Name != "nope" {
			t.Fatalf("call %d: sharedFrom(nope) = %v, %v; want *UnknownSceneError{nope}", i, s, err)
		}
		if m.Len() != 0 {
			t.Fatalf("call %d: unknown name left %d entries", i, m.Len())
		}
	}
	if _, err := Shared(context.Background(), "nope", testScale); err == nil {
		t.Fatal("Shared(nope) did not error")
	}
}

// TestByNameCheckedIsFresh checks the two ends of the sharing contract:
// ByNameChecked builds a distinct scene that the caller may modify on
// every call, while Shared hands every caller the same one, which the
// caller's modification does not reach.
func TestByNameCheckedIsFresh(t *testing.T) {
	a, b := byName(t, "goblet", testScale), byName(t, "goblet", testScale)
	if a == b || &a.Mips[0] == &b.Mips[0] || &a.Draws[0] == &b.Draws[0] {
		t.Fatal("ByNameChecked returned shared scene state")
	}
	s1, err := Shared(context.Background(), "goblet", testScale)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Shared(context.Background(), "goblet", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("Shared returned two scenes for one (name, scale)")
	}
	// Every scale below 1 builds the scale-1 scene, and shares it.
	z, err := Shared(context.Background(), "goblet", 0)
	if err != nil {
		t.Fatal(err)
	}
	if one, err := Shared(context.Background(), "goblet", 1); err != nil || z != one || z == s1 {
		t.Fatalf("Shared(goblet, 0) is not the shared scale-1 scene (err %v)", err)
	}
	a.Width = 1
	if s1.Width == 1 {
		t.Fatal("modifying a ByNameChecked scene changed the shared one")
	}
}
