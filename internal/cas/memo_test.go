package cas

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// value returns a production of v with size bytes that counts its runs.
func value(v string, size int64, runs *atomic.Int64) func() (string, int64, error) {
	return func() (string, int64, error) {
		runs.Add(1)
		return v, size, nil
	}
}

func TestMemoHitAndLRUOrder(t *testing.T) {
	evicted := 0
	m := NewMemo[string, string](2, 1<<20, func() { evicted++ })
	ctx := context.Background()
	var runs atomic.Int64
	for _, k := range []string{"a", "b"} {
		if _, o, err := m.Do(ctx, k, value(k, 1, &runs)); o != Produced || err != nil {
			t.Fatalf("%s: outcome %v err %v, want Produced", k, o, err)
		}
	}
	// A hit moves "a" to the front, so "b" is the one "c" evicts.
	if v, o, _ := m.Do(ctx, "a", value("other", 1, &runs)); o != Hit || v != "a" {
		t.Fatalf("repeat of a: %q outcome %v, want the stored value as a Hit", v, o)
	}
	m.Do(ctx, "c", value("c", 1, &runs))
	if m.Len() != 2 || m.Evictions() != 1 || evicted != 1 {
		t.Fatalf("Len %d Evictions %d onEvict %d, want 2/1/1", m.Len(), m.Evictions(), evicted)
	}
	before := runs.Load()
	if _, o, _ := m.Do(ctx, "a", value("a", 1, &runs)); o != Hit {
		t.Errorf("recently used a was evicted (outcome %v)", o)
	}
	if _, o, _ := m.Do(ctx, "b", value("b", 1, &runs)); o != Produced {
		t.Errorf("least recently used b survived (outcome %v)", o)
	}
	if runs.Load() != before+1 {
		t.Errorf("runs %d -> %d, want one re-production", before, runs.Load())
	}
}

func TestMemoSoleEntrySurvivesByteBudget(t *testing.T) {
	m := NewMemo[string, string](8, 10, func() {})
	ctx := context.Background()
	var runs atomic.Int64
	m.Do(ctx, "a", value("a", 100, &runs))
	if m.Len() != 1 || m.Bytes() != 100 || m.Evictions() != 0 {
		t.Fatalf("Len %d Bytes %d Evictions %d, want the oversized sole entry kept", m.Len(), m.Bytes(), m.Evictions())
	}
	m.Do(ctx, "b", value("b", 100, &runs))
	if m.Len() != 1 || m.Bytes() != 100 || m.Evictions() != 1 {
		t.Fatalf("Len %d Bytes %d Evictions %d, want only the newest entry", m.Len(), m.Bytes(), m.Evictions())
	}
	if _, o, _ := m.Do(ctx, "b", value("b", 100, &runs)); o != Hit {
		t.Errorf("newest entry evicted (outcome %v)", o)
	}
}

// waitingCtx closes waiting when a caller first asks for its Done
// channel, which Memo.Do does only once it waits on an in-flight entry.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return nil
}

// TestMemoFailedProductionNotMemoized: a waiter on a failed production
// gets its error, and the next call produces again.
func TestMemoFailedProductionNotMemoized(t *testing.T) {
	m := NewMemo[string, string](8, 1<<20, func() {})
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := m.Do(context.Background(), "k", func() (string, int64, error) {
			close(started)
			<-release
			return "", 0, boom
		})
		done <- err
	}()
	<-started
	ctx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
	waiter := make(chan error, 1)
	go func() {
		_, o, err := m.Do(ctx, "k", func() (string, int64, error) {
			t.Error("waiter became a producer")
			return "", 0, nil
		})
		if o != Coalesced {
			t.Errorf("waiter outcome %v, want Coalesced", o)
		}
		waiter <- err
	}()
	<-ctx.waiting
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("producer err = %v, want boom", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Errorf("waiter err = %v, want boom", err)
	}
	if m.Len() != 0 {
		t.Fatalf("failed production memoized: Len %d", m.Len())
	}
	var runs atomic.Int64
	if v, o, err := m.Do(context.Background(), "k", value("ok", 2, &runs)); err != nil || o != Produced || v != "ok" {
		t.Fatalf("retry: %q %v %v", v, o, err)
	}
}

// TestMemoAbandonedProductionRetried: a production that fails because
// its producer's context ended does not fail a waiter whose own context
// is live. The waiter calls again and produces the value itself.
func TestMemoAbandonedProductionRetried(t *testing.T) {
	m := NewMemo[string, string](8, 1<<20, func() {})
	pctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := m.Do(pctx, "k", func() (string, int64, error) {
			close(started)
			<-pctx.Done()
			return "", 0, pctx.Err()
		})
		done <- err
	}()
	<-started
	ctx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
	type call struct {
		v   string
		o   Outcome
		err error
	}
	waiter := make(chan call, 1)
	var runs atomic.Int64
	go func() {
		v, o, err := m.Do(ctx, "k", value("v", 1, &runs))
		waiter <- call{v, o, err}
	}()
	<-ctx.waiting
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("producer err = %v, want context.Canceled", err)
	}
	if c := <-waiter; c.err != nil || c.o != Produced || c.v != "v" {
		t.Fatalf("live waiter: %q outcome %v err %v, want v Produced by its own call", c.v, c.o, c.err)
	}
	if runs.Load() != 1 || m.Len() != 1 {
		t.Errorf("runs %d Len %d, want the waiter's one production installed", runs.Load(), m.Len())
	}
}

func TestMemoCancelledWaiter(t *testing.T) {
	m := NewMemo[string, string](8, 1<<20, func() {})
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan string, 1)
	go func() {
		v, _, _ := m.Do(context.Background(), "k", func() (string, int64, error) {
			close(started)
			<-release
			return "v", 1, nil
		})
		done <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, o, err := m.Do(ctx, "k", func() (string, int64, error) {
		t.Error("cancelled waiter became a producer")
		return "", 0, nil
	})
	if o != Coalesced || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter: outcome %v err %v, want Coalesced/context.Canceled", o, err)
	}
	close(release)
	if v := <-done; v != "v" {
		t.Errorf("production returned %q after a waiter left, want v", v)
	}
	if m.Len() != 1 {
		t.Errorf("production not installed after a waiter left: Len %d", m.Len())
	}
}

// TestMemoSingleFlight: N concurrent callers cause one production, and
// every caller gets its value. Run under -race.
func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[int, []byte](8, 1<<20, func() {})
	const callers = 16
	var runs atomic.Int64
	var wg sync.WaitGroup
	outs := make([][]byte, callers)
	outcomes := make([]Outcome, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], outcomes[i], _ = m.Do(context.Background(), 7, func() ([]byte, int64, error) {
				runs.Add(1)
				return []byte("payload"), 7, nil
			})
		}(i)
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("%d concurrent callers ran %d productions, want 1", callers, runs.Load())
	}
	produced := 0
	for i := range outs {
		if string(outs[i]) != "payload" {
			t.Errorf("caller %d got %q", i, outs[i])
		}
		if outcomes[i] == Produced {
			produced++
		}
	}
	if produced != 1 {
		t.Errorf("%d callers report Produced, want 1", produced)
	}
}
