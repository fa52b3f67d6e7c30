package serve_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

func keyN(i int) serve.Key {
	var k serve.Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	return k
}

// counters re-fetches the cache metric values from the shared registry
// (registering an existing family returns the same instance).
func counters(reg *obs.Registry) (hits, misses, evictions, entries float64) {
	return reg.Counter(serve.MetricCacheHits, "").Value(),
		reg.Counter(serve.MetricCacheMisses, "").Value(),
		reg.Counter(serve.MetricCacheEvictions, "").Value(),
		reg.Gauge(serve.MetricCacheEntries, "").Value()
}

func mustDo[V any](t *testing.T, c *serve.Cache[V], k serve.Key, want serve.Outcome, compute func() (V, error)) V {
	t.Helper()
	v, outcome, err := c.Do(context.Background(), k, compute)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != want {
		t.Fatalf("outcome %v, want %v", outcome, want)
	}
	return v
}

func TestCacheHitMissEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := serve.NewCache[string](2, reg)
	val := func(s string) func() (string, error) {
		return func() (string, error) { return s, nil }
	}
	fail := func() (string, error) {
		t.Fatal("compute ran on a hit")
		return "", nil
	}
	mustDo(t, c, keyN(1), serve.Miss, val("a"))
	if got := mustDo(t, c, keyN(1), serve.Hit, fail); got != "a" {
		t.Fatalf("hit returned %q", got)
	}
	mustDo(t, c, keyN(2), serve.Miss, val("b"))
	// Touch key 1 so key 2 is LRU, then overflow the capacity.
	mustDo(t, c, keyN(1), serve.Hit, fail)
	mustDo(t, c, keyN(3), serve.Miss, val("c"))
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	hits, misses, evictions, entries := counters(reg)
	if hits != 2 || misses != 3 || evictions != 1 || entries != 2 {
		t.Fatalf("metrics hits=%v misses=%v evictions=%v entries=%v, want 2/3/1/2",
			hits, misses, evictions, entries)
	}
	// Observe the eviction through Do: the recently used entry 1 is
	// served without computing, and the evicted entry 2 is computed
	// again.
	computes := 0
	count := func(s string) func() (string, error) {
		return func() (string, error) { computes++; return s, nil }
	}
	if got := mustDo(t, c, keyN(1), serve.Hit, count("a")); got != "a" || computes != 0 {
		t.Fatalf("recently used entry 1: got %q after %d computes, want the cached \"a\" and none", got, computes)
	}
	if got := mustDo(t, c, keyN(2), serve.Miss, count("b2")); got != "b2" || computes != 1 {
		t.Fatalf("evicted entry 2: got %q after %d computes, want a recomputed \"b2\" and one", got, computes)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := serve.NewCache[int](4, nil)
	boom := errors.New("boom")
	_, outcome, err := c.Do(context.Background(), keyN(1), func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) || outcome != serve.Miss {
		t.Fatalf("got (%v, %v)", outcome, err)
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
	// The next call recomputes and can succeed.
	if got := mustDo(t, c, keyN(1), serve.Miss, func() (int, error) { return 42, nil }); got != 42 {
		t.Fatalf("got %d", got)
	}
}

// TestCacheCoalesce blocks the first computation and checks that a
// concurrent identical request shares it instead of computing again: the
// waiter observes the in-flight call (its own compute must not run), and
// once unblocked both get the value while compute ran exactly once.
func TestCacheCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	c := serve.NewCache[int](4, reg)
	started := make(chan struct{})
	unblock := make(chan struct{})
	var computes atomic.Int32

	const waiters = 4
	var wg sync.WaitGroup
	results := make([]struct {
		v       int
		outcome serve.Outcome
		err     error
	}, waiters+1)
	do := func(i int) {
		defer wg.Done()
		r := &results[i]
		r.v, r.outcome, r.err = c.Do(context.Background(), keyN(1), func() (int, error) {
			if computes.Add(1) == 1 {
				close(started)
			}
			<-unblock
			return 7, nil
		})
	}
	wg.Add(1)
	go do(0)
	<-started
	wg.Add(waiters)
	for i := 1; i <= waiters; i++ {
		go do(i)
	}
	// Unblock only once every waiter has joined the in-flight call, so
	// the outcome split below is deterministic.
	for c.Waiting() != waiters {
		runtime.Gosched()
	}
	close(unblock)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	var miss, coalesced int
	for i, r := range results {
		if r.err != nil || r.v != 7 {
			t.Fatalf("request %d: (%d, %v)", i, r.v, r.err)
		}
		switch r.outcome {
		case serve.Miss:
			miss++
		case serve.Coalesced:
			coalesced++
		}
	}
	if miss != 1 || coalesced != waiters {
		t.Fatalf("%d misses, %d coalesced, want 1/%d", miss, coalesced, waiters)
	}
	hits, misses, _, _ := counters(reg)
	if misses != 1 || hits != waiters {
		t.Fatalf("metrics hits=%v misses=%v, want %d/1", hits, misses, waiters)
	}
}

// TestCacheCoalescedErrorShared: a waiter coalesced onto a failing
// computation sees the shared error, and nothing lands in the cache.
// Waiting() sequences the test: the computation is only unblocked once
// the waiter has verifiably joined it.
func TestCacheCoalescedErrorShared(t *testing.T) {
	c := serve.NewCache[int](4, nil)
	boom := errors.New("boom")
	started := make(chan struct{})
	unblock := make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), keyN(1), func() (int, error) {
			close(started)
			<-unblock
			return 0, boom
		})
		firstDone <- err
	}()
	<-started
	type waiterResult struct {
		outcome serve.Outcome
		err     error
	}
	waiterDone := make(chan waiterResult, 1)
	go func() {
		_, outcome, err := c.Do(context.Background(), keyN(1), func() (int, error) {
			t.Error("waiter compute ran during an in-flight call")
			return 0, nil
		})
		waiterDone <- waiterResult{outcome, err}
	}()
	for c.Waiting() == 0 {
		runtime.Gosched()
	}
	close(unblock)
	if err := <-firstDone; !errors.Is(err, boom) {
		t.Fatalf("first: %v", err)
	}
	if w := <-waiterDone; !errors.Is(w.err, boom) || w.outcome != serve.Coalesced {
		t.Fatalf("waiter: (%v, %v), want coalesced boom", w.outcome, w.err)
	}
	if c.Len() != 0 {
		t.Fatal("failed computation was cached")
	}
}

// TestCacheWaiterContextEnds: a coalesced waiter whose context ends
// returns the context error immediately; the underlying computation keeps
// going and still populates the cache.
func TestCacheWaiterContextEnds(t *testing.T) {
	c := serve.NewCache[int](4, nil)
	started := make(chan struct{})
	unblock := make(chan struct{})
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		if v := mustDo(t, c, keyN(1), serve.Miss, func() (int, error) {
			close(started)
			<-unblock
			return 9, nil
		}); v != 9 {
			t.Errorf("first got %d", v)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, outcome, err := c.Do(ctx, keyN(1), func() (int, error) {
		t.Error("waiter compute ran")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) || outcome != serve.Coalesced {
		t.Fatalf("got (%v, %v), want coalesced context.Canceled", outcome, err)
	}
	close(unblock)
	<-firstDone
	if got := mustDo(t, c, keyN(1), serve.Hit, func() (int, error) { return 0, nil }); got != 9 {
		t.Fatalf("cache holds %d, want 9", got)
	}
}

// TestCacheConcurrentDistinctKeys hammers the cache from many goroutines
// under -race: distinct keys compute independently, repeated keys are
// served consistently.
func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := serve.NewCache[string](64, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := i % 10
				want := fmt.Sprintf("v%d", k)
				v, _, err := c.Do(context.Background(), keyN(k), func() (string, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("g%d i%d: (%q, %v)", g, i, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 10 {
		t.Fatalf("len %d, want 10", c.Len())
	}
}
