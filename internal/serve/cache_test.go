package serve

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lite/pkg/api"
)

func TestCacheTTLExpiry(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	c := newTTLCache(10*time.Second, now)
	calls := 0
	fn := func() (api.RecommendResponse, error) {
		calls++
		return api.RecommendResponse{Tier: "necs"}, nil
	}
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", fn); hit {
		t.Fatal("first call must miss")
	}
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", fn); !hit {
		t.Fatal("second call must hit")
	}
	advance(11 * time.Second)
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", fn); hit {
		t.Fatal("expired entry must miss")
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2", calls)
	}
	c.flush(0)
	c.getOrDo(context.Background(), "k", fn)
	if calls != 3 {
		t.Fatalf("flush did not evict (calls=%d)", calls)
	}
}

// TestCacheStaleGenerationNotInserted models a compute that straddles a
// model hot-swap: flush(newGen) lands while the compute is in flight, so
// the previous-generation result must be returned to its waiters but never
// cached.
func TestCacheStaleGenerationNotInserted(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	calls := 0
	stale := func() (api.RecommendResponse, error) {
		calls++
		c.flush(1) // hot-swap to generation 1 mid-compute
		return api.RecommendResponse{Tier: "necs", Generation: 0}, nil
	}
	if _, hit, _, err := c.getOrDo(context.Background(), "k", stale); err != nil || hit {
		t.Fatalf("leader compute: hit=%v err=%v", hit, err)
	}
	if c.len() != 0 {
		t.Fatalf("stale-generation entry was cached (%d entries)", c.len())
	}
	fresh := func() (api.RecommendResponse, error) {
		calls++
		return api.RecommendResponse{Tier: "necs", Generation: 1}, nil
	}
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", fresh); hit {
		t.Fatal("stale entry served after flush")
	}
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", fresh); !hit {
		t.Fatal("current-generation entry must be cached")
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2", calls)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	var calls atomic.Int32
	gate := make(chan struct{})
	fn := func() (api.RecommendResponse, error) {
		calls.Add(1)
		<-gate
		return api.RecommendResponse{Tier: "necs"}, nil
	}

	const n = 16
	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			_, hit, shared, err := c.getOrDo(context.Background(), "k", fn)
			if err != nil {
				t.Error(err)
			}
			if hit {
				t.Error("no entry existed yet; hit impossible")
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// Release once every follower has parked on the in-flight call.
	waitParked(t, c, "k", n-1)
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("stampede computed %d times, want exactly 1", got)
	}
	if sharedCount.Load() != n-1 {
		t.Fatalf("%d callers shared, want %d", sharedCount.Load(), n-1)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	calls := 0
	fail := func() (api.RecommendResponse, error) { calls++; return api.RecommendResponse{}, ErrQueueFull }
	c.getOrDo(context.Background(), "k", fail)
	c.getOrDo(context.Background(), "k", fail)
	if calls != 2 {
		t.Fatalf("error result was cached (calls=%d)", calls)
	}
	if c.len() != 0 {
		t.Fatalf("cache holds %d entries after errors, want 0", c.len())
	}
}

// TestCacheSweepsExpiredEntries: unique keys that each expire — unseen-app
// payloads on a shard that never swaps — leave the cache bounded near
// what is live, since inserts sweep the expired ones once the map doubles.
func TestCacheSweepsExpiredEntries(t *testing.T) {
	clock := time.Unix(1000, 0)
	c := newTTLCache(30*time.Second, func() time.Time { return clock })
	fn := func() (api.RecommendResponse, error) { return api.RecommendResponse{Tier: "retrieval"}, nil }
	const keys = 100_000
	live := int(degradedCacheTTL / time.Millisecond) // keys inserted within one TTL
	peak := 0
	for i := 0; i < keys; i++ {
		c.getOrDo(context.Background(), "k"+strconv.Itoa(i), fn)
		peak = max(peak, c.len())
		clock = clock.Add(time.Millisecond)
	}
	if bound := 2*live + 1; peak > bound {
		t.Fatalf("%d unique keys, %d live at a time: the cache peaked at %d entries, want at most %d", keys, live, peak, bound)
	}
	if c.len() < live {
		t.Fatalf("the cache holds %d entries, fewer than the %d live ones", c.len(), live)
	}
	// A live entry is never swept.
	if _, hit, _, _ := c.getOrDo(context.Background(), "k"+strconv.Itoa(keys-1), fn); !hit {
		t.Fatal("the newest entry was swept")
	}
}

// TestCachePanickingLeaderReleasesKey: a leader whose compute panics
// hands its waiters an error at once and frees the key, so the next caller
// computes afresh instead of waiting out its deadline on a call nobody
// will finish.
func TestCachePanickingLeaderReleasesKey(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	started, release := make(chan struct{}), make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.getOrDo(context.Background(), "k", func() (api.RecommendResponse, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _, _, err := c.getOrDo(ctx, "k", func() (api.RecommendResponse, error) {
			return api.RecommendResponse{}, nil
		})
		waiterErr <- err
	}()
	for attached := false; !attached; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		attached = c.inflight["k"].waiters == 1
		c.mu.Unlock()
	}
	close(release)
	if r := <-leaderPanic; r != "boom" {
		t.Fatalf("leader recovered %v, want its own panic to go on", r)
	}
	select {
	case err := <-waiterErr:
		if err == nil || isCtxErr(err) {
			t.Fatalf("waiter of a panicking leader: err %v, want the leader's failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter of a panicking leader is still blocked")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, hit, shared, err := c.getOrDo(ctx, "k", func() (api.RecommendResponse, error) {
		return api.RecommendResponse{Tier: "necs"}, nil
	})
	if err != nil || hit || shared || resp.Tier != "necs" {
		t.Fatalf("next caller after the panic: tier %q hit=%v shared=%v err=%v, want a fresh compute", resp.Tier, hit, shared, err)
	}
}
