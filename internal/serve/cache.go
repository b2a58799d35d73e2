package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"lite/internal/core"
	"lite/pkg/api"
)

// degradedCacheTTL caps how long a non-NECS answer may be served from
// cache. A transient model failure demotes one compute down the
// degradation chain; pinning that demoted answer for the full CacheTTL
// would keep serving it long after the model recovered, so degraded tiers
// expire on their own fast clock.
const degradedCacheTTL = 2 * time.Second

// ttlCache is the recommendation cache: key → response with a TTL, plus
// singleflight deduplication so a stampede of concurrent misses on one key
// computes exactly once while the rest wait for the leader's result. It is
// the serving path's only coalescer. A ttl <= 0 stores nothing
// (Options.DisableCache): every call computes, but concurrent calls for
// one key still share the leader's computation.
type ttlCache struct {
	ttl time.Duration
	now func() time.Time

	mu       sync.Mutex
	minGen   uint64 // entries from generations below this are never cached
	entries  map[string]cacheEntry
	inflight map[string]*flightCall
	// sweepAt is the entry count at which the next insert first deletes
	// every expired entry: twice the count the last sweep left, and at
	// least minSweep. Unseen-app payloads are each their own key, so
	// without it a shard that never swaps would keep every one.
	sweepAt int
}

// minSweep is the smallest cache that is swept for expired entries.
const minSweep = 1024

type cacheEntry struct {
	resp    api.RecommendResponse
	expires time.Time
}

type flightCall struct {
	done    chan struct{}
	resp    api.RecommendResponse
	err     error
	waiters int // callers that attached to this call, under ttlCache.mu
}

func newTTLCache(ttl time.Duration, now func() time.Time) *ttlCache {
	return &ttlCache{
		ttl:      ttl,
		now:      now,
		entries:  map[string]cacheEntry{},
		inflight: map[string]*flightCall{},
		sweepAt:  minSweep,
	}
}

// isCtxErr reports whether err is a context cancellation or deadline error
// (possibly wrapped).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// getOrDo returns the cached response for key if fresh; otherwise the first
// caller runs fn and everyone else arriving before it finishes shares the
// result. hit reports a cache hit, shared reports that this caller waited
// on another caller's computation. Errors are not cached.
//
// Cancellation contract: a waiter whose ctx is cancelled detaches
// immediately with ctx.Err() — the leader keeps computing for the
// remaining waiters. Conversely, a waiter that receives a context error
// produced by the *leader's* cancellation (its own ctx still live) does
// not inherit the leader's fate: it loops and recomputes, becoming the new
// leader if nobody else already has.
func (c *ttlCache) getOrDo(ctx context.Context, key string, fn func() (api.RecommendResponse, error)) (resp api.RecommendResponse, hit, shared bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok && c.now().Before(e.expires) {
			c.mu.Unlock()
			return e.resp, true, false, nil
		}
		call, ok := c.inflight[key]
		if !ok {
			call = &flightCall{done: make(chan struct{})}
			c.inflight[key] = call
			c.mu.Unlock()
			c.lead(key, call, fn)
			return call.resp, false, false, call.err
		}
		call.waiters++
		c.mu.Unlock()

		select {
		case <-call.done:
		case <-ctx.Done():
			// Detach without killing the leader: its result still serves
			// every waiter that stayed.
			return api.RecommendResponse{}, false, false, ctx.Err()
		}
		if isCtxErr(call.err) && ctx.Err() == nil {
			// The leader gave up, we did not: retry the lookup/compute.
			continue
		}
		return call.resp, false, true, call.err
	}
}

// errComputePanicked is what the waiters of a leader whose compute
// panicked receive; the panic itself goes on up the leader's stack.
var errComputePanicked = errors.New("serve: the shared recommendation compute panicked")

// lead runs fn as key's leader, caches the result when it may be, frees
// the key and releases the waiters. If fn panics, the key is freed and the
// waiters released with errComputePanicked before the panic goes on, so
// the next caller computes afresh instead of waiting for a call nobody
// will finish.
func (c *ttlCache) lead(key string, call *flightCall, fn func() (api.RecommendResponse, error)) {
	finished := false
	defer func() {
		if !finished {
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			call.err = errComputePanicked
			close(call.done)
		}
	}()
	call.resp, call.err = fn()
	finished = true
	c.mu.Lock()
	delete(c.inflight, key)
	// A compute that was in flight across a hot-swap carries the previous
	// snapshot's generation; flush already raised minGen, so the stale
	// result is handed to its waiters but never cached.
	if c.ttl > 0 && call.err == nil && call.resp.Generation >= c.minGen {
		ttl := c.ttl
		if call.resp.Tier != string(core.TierNECS) && ttl > degradedCacheTTL {
			ttl = degradedCacheTTL
		}
		now := c.now()
		if len(c.entries) >= c.sweepAt {
			c.sweep(now)
		}
		c.entries[key] = cacheEntry{resp: call.resp, expires: now.Add(ttl)}
	}
	c.mu.Unlock()
	close(call.done)
}

// sweep deletes the entries expired at now and sets the next sweep's
// size; the caller holds c.mu. Each sweep is paid for by the inserts that
// doubled the map since the last one.
func (c *ttlCache) sweep(now time.Time) {
	for k, e := range c.entries {
		if !now.Before(e.expires) {
			delete(c.entries, k)
		}
	}
	c.sweepAt = max(2*len(c.entries), minSweep)
}

// flush drops every cached entry and bars entries from generations older
// than minGen from ever being inserted (called on model hot-swap with the
// new snapshot's generation: a compute that straddled the swap must not
// park a previous-generation recommendation in the cache for a full TTL).
func (c *ttlCache) flush(minGen uint64) {
	c.mu.Lock()
	if minGen > c.minGen {
		c.minGen = minGen
	}
	c.entries = map[string]cacheEntry{}
	c.sweepAt = minSweep
	c.mu.Unlock()
}

// len reports the current number of cached entries (expired included).
func (c *ttlCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
