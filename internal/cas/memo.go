package cas

import (
	"container/list"
	"context"
	"sync"
)

// Outcome says how Memo.Do served a call.
type Outcome int

const (
	// Produced: the call ran the production itself.
	Produced Outcome = iota
	// Hit: the call was served by a completed entry.
	Hit
	// Coalesced: the call waited on another caller's production.
	Coalesced
)

// memoEntry is one slot of a Memo. ready is closed once val/err are
// final; waiters block on it (or their context) instead of holding the
// lock through a production. elem is the entry's LRU node, nil while the
// production is in flight, so an in-flight entry is never evicted.
// abandoned records that the producer's own context had ended when its
// failed production returned: the error is its caller's, not the key's.
type memoEntry[K comparable, V any] struct {
	key       K
	ready     chan struct{}
	val       V
	size      int64
	err       error
	abandoned bool
	elem      *list.Element
}

// Memo memoizes values by key with single-flight semantics: concurrent
// calls for one key run its production once, and the rest wait for that
// result. Completed entries sit in an LRU bounded by an entry budget and
// a byte budget. Eviction is never a correctness event: the next call
// for an evicted key produces it again.
type Memo[K comparable, V any] struct {
	maxEntries int
	maxBytes   int64
	onEvict    func()

	mu        sync.Mutex
	entries   map[K]*memoEntry[K, V]
	lru       *list.List // completed entries, front = most recently used
	bytes     int64      // sum of completed entry sizes
	evictions int
}

// NewMemo returns an empty memo holding at most maxEntries completed
// entries and maxBytes of their sizes. onEvict runs once per evicted
// entry, outside the memo's lock.
func NewMemo[K comparable, V any](maxEntries int, maxBytes int64, onEvict func()) *Memo[K, V] {
	return &Memo[K, V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		onEvict:    onEvict,
		entries:    map[K]*memoEntry[K, V]{},
		lru:        list.New(),
	}
}

// Do returns the value for key. A completed entry is a Hit and moves to
// the front of the LRU. An in-flight one is Coalesced: the call waits
// for it, or returns ctx.Err() when ctx ends first while the production
// goes on for whoever still wants it. Otherwise the call runs produce,
// which returns the value and its size in bytes, and installs the result.
// ctx is the context produce runs under. A failed production is
// dropped, so a later call retries. Its waiters get its error, unless
// the producer's ctx had ended by the time it failed: a waiter whose own
// ctx is still live then calls again, producing the value itself or
// joining the next production. Eviction runs from the back of the LRU
// while either budget is exceeded, but never evicts the sole entry.
func (m *Memo[K, V]) Do(ctx context.Context, key K, produce func() (V, int64, error)) (V, Outcome, error) {
	m.mu.Lock()
	for {
		e, ok := m.entries[key]
		if !ok {
			break
		}
		if e.elem != nil {
			m.lru.MoveToFront(e.elem)
			m.mu.Unlock()
			return e.val, Hit, nil
		}
		m.mu.Unlock()
		select {
		case <-e.ready:
			if !e.abandoned {
				return e.val, Coalesced, e.err
			}
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, Coalesced, err
		}
		m.mu.Lock()
	}
	e := &memoEntry[K, V]{key: key, ready: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()

	e.val, e.size, e.err = produce()
	evicted := 0
	m.mu.Lock()
	if e.err != nil {
		e.abandoned = ctx.Err() != nil
		delete(m.entries, key)
	} else {
		e.elem = m.lru.PushFront(e)
		m.bytes += e.size
		for m.lru.Len() > 1 && (m.lru.Len() > m.maxEntries || m.bytes > m.maxBytes) {
			v := m.lru.Remove(m.lru.Back()).(*memoEntry[K, V])
			delete(m.entries, v.key)
			m.bytes -= v.size
			evicted++
		}
		m.evictions += evicted
	}
	m.mu.Unlock()
	close(e.ready)
	for i := 0; i < evicted; i++ {
		m.onEvict()
	}
	return e.val, Produced, e.err
}

// Len reports the number of completed entries.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// Bytes reports the summed size of completed entries.
func (m *Memo[K, V]) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Evictions reports how many completed entries have been dropped to stay
// within budget.
func (m *Memo[K, V]) Evictions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}
