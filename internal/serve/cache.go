package serve

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/obs"
)

// Metric names of the serving cache, one spelling referenced by the
// DESIGN.md §7 catalog, the hpserve tests and dashboards. Caches sharing
// one registry share these families: the counters and the entries gauge
// then aggregate across caches, which is the fleet-level reading a
// dashboard wants.
const (
	MetricCacheHits      = "hp_cache_hits_total"
	MetricCacheMisses    = "hp_cache_misses_total"
	MetricCacheEvictions = "hp_cache_evictions_total"
	MetricCacheEntries   = "hp_cache_entries"
)

// Outcome says how a Do call was served.
type Outcome int

const (
	// Miss: this call ran compute and (on success) stored the result.
	Miss Outcome = iota
	// Hit: the result was already cached.
	Hit
	// Coalesced: an identical call was already computing; this call
	// waited for it and shared its result without running compute.
	Coalesced
)

// String implements fmt.Stringer for test failure messages.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "unknown"
	}
}

// call is one in-flight computation waiters coalesce onto. val and err
// are written once, before done is closed; waiters read them only after
// <-done, so the fields need no lock.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// centry is one cached entry, stored in the LRU list.
type centry[V any] struct {
	key Key
	val V
}

// Cache is a bounded LRU of schedule results keyed by canonical request
// Key, with single-flight coalescing: concurrent Do calls for one key run
// compute once and share the result. Entries never expire — the key is a
// content hash of every input of the pure simulation, so a cached result
// can only ever be exactly right — they are only evicted by capacity.
// The zero value is not usable; call NewCache.
type Cache[V any] struct {
	capacity int

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge

	mu      sync.Mutex
	ll      *list.List // front = most recently used; values are *centry[V]
	items   map[Key]*list.Element
	calls   map[Key]*call[V]
	waiting int // requests currently coalesced onto in-flight calls
}

// NewCache returns a cache holding at most capacity entries (minimum 1).
// Metrics are registered in reg, or in a private registry when reg is nil.
func NewCache[V any](capacity int, reg *obs.Registry) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cache[V]{
		capacity: capacity,
		hits: reg.Counter(MetricCacheHits,
			"Requests served from the schedule result cache (including coalesced shares of an in-flight computation)."),
		misses: reg.Counter(MetricCacheMisses,
			"Requests that ran a new computation to populate the cache."),
		evictions: reg.Counter(MetricCacheEvictions,
			"Cache entries evicted by the LRU capacity bound."),
		entries: reg.Gauge(MetricCacheEntries,
			"Entries currently resident in the schedule result cache."),
		ll:    list.New(),
		items: make(map[Key]*list.Element),
		calls: make(map[Key]*call[V]),
	}
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Waiting returns the number of Do calls currently coalesced onto
// in-flight computations. Tests use it to sequence deterministically
// against the coalescing window.
func (c *Cache[V]) Waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiting
}

// Do returns the value for k, computing it with compute on a miss. An
// error from compute is returned to the caller and every coalesced
// waiter, and nothing is cached. A waiter whose ctx ends before the
// shared computation finishes returns ctx.Err() (the computation itself
// is not cancelled: its result stays valid for the cache and any other
// waiter). compute runs without the cache lock held.
func (c *Cache[V]) Do(ctx context.Context, k Key, compute func() (V, error)) (V, Outcome, error) {
	return c.DoCtx(ctx, k, func(context.Context) (V, error) { return compute() })
}

// DoCtx is Do with a context-aware compute callback. When ctx carries a
// trace span, DoCtx records a "cache" child span annotated with the
// outcome; a coalesced wait gets a nested "coalesce" span covering the
// time blocked on the in-flight computation, and on a miss compute
// receives a context carrying the cache span, so spans the computation
// starts nest under it (this is what keeps a trace's phase durations
// summing to the request latency instead of double counting).
func (c *Cache[V]) DoCtx(ctx context.Context, k Key, compute func(context.Context) (V, error)) (V, Outcome, error) {
	csp := obs.SpanFromContext(ctx).StartChild("cache")
	defer csp.End()
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*centry[V]).val
		c.hits.Inc()
		c.mu.Unlock()
		csp.Annotate("outcome", "hit")
		return v, Hit, nil
	}
	if cl, ok := c.calls[k]; ok {
		c.waiting++
		c.mu.Unlock()
		defer func() {
			c.mu.Lock()
			c.waiting--
			c.mu.Unlock()
		}()
		csp.Annotate("outcome", "coalesced")
		wsp := csp.StartChild("coalesce")
		defer wsp.End()
		var zero V
		select {
		case <-cl.done:
			if cl.err != nil {
				return zero, Coalesced, cl.err
			}
			c.hits.Inc()
			return cl.val, Coalesced, nil
		case <-ctx.Done():
			return zero, Coalesced, ctx.Err()
		}
	}
	c.misses.Inc()
	cl := &call[V]{done: make(chan struct{})}
	c.calls[k] = cl
	c.mu.Unlock()

	csp.Annotate("outcome", "miss")
	cctx := ctx
	if csp != nil {
		cctx = obs.ContextWithSpan(ctx, csp)
	}
	cl.val, cl.err = compute(cctx)

	c.mu.Lock()
	delete(c.calls, k)
	if cl.err == nil {
		if el, ok := c.items[k]; ok {
			// Lost a benign race with another populate of the same key
			// (possible only via future APIs; keep the resident entry).
			c.ll.MoveToFront(el)
		} else {
			// The entries gauge moves by deltas so caches sharing one
			// registry aggregate instead of stomping each other.
			c.items[k] = c.ll.PushFront(&centry[V]{key: k, val: cl.val})
			c.entries.Add(1)
			for c.ll.Len() > c.capacity {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.items, oldest.Value.(*centry[V]).key)
				c.evictions.Inc()
				c.entries.Add(-1)
			}
		}
	}
	c.mu.Unlock()
	close(cl.done)
	var zero V
	if cl.err != nil {
		return zero, Miss, cl.err
	}
	return cl.val, Miss, nil
}
