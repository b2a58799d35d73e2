package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lite/pkg/api"
)

// --- cache cancellation semantics ---

// TestCacheWaiterDetachOnCancel: a waiter whose context is cancelled while
// parked on another caller's computation detaches with ctx.Err() without
// killing the leader — the leader's result still lands in the cache.
func TestCacheWaiterDetachOnCancel(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	gate := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := c.getOrDo(context.Background(), "k", func() (api.RecommendResponse, error) {
			<-gate
			return api.RecommendResponse{Tier: "necs"}, nil
		})
		leaderDone <- err
	}()
	// Wait for the leader to register its in-flight call.
	waitInflight(t, c, "k")

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, _, err := c.getOrDo(ctx, "k", func() (api.RecommendResponse, error) {
			t.Error("detached waiter must not compute")
			return api.RecommendResponse{}, nil
		})
		waiterDone <- err
	}()
	waitParked(t, c, "k", 1)
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter did not detach")
	}

	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", nil); !hit {
		t.Fatal("leader result was not cached after waiter detached")
	}
}

// TestCacheLeaderCancelledWaiterRetries: a waiter must not inherit the
// *leader's* cancellation — when the shared result is a context error and
// the waiter's own context is still live, it retries and becomes the new
// leader.
func TestCacheLeaderCancelledWaiterRetries(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	gate := make(chan struct{})
	go func() {
		// Leader whose own context was cancelled mid-compute: its fn
		// surfaces the context error.
		c.getOrDo(context.Background(), "k", func() (api.RecommendResponse, error) {
			<-gate
			return api.RecommendResponse{}, context.Canceled
		})
	}()
	waitInflight(t, c, "k")

	var retried atomic.Int32
	waiterDone := make(chan struct{})
	var resp api.RecommendResponse
	var shared bool
	var werr error
	go func() {
		defer close(waiterDone)
		resp, _, shared, werr = c.getOrDo(context.Background(), "k", func() (api.RecommendResponse, error) {
			retried.Add(1)
			return api.RecommendResponse{Tier: "necs"}, nil
		})
	}()
	waitParked(t, c, "k", 1)
	close(gate) // leader hands its cancellation to the waiter

	select {
	case <-waiterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung after leader cancellation")
	}
	if werr != nil {
		t.Fatalf("waiter err = %v, want success from its own retry", werr)
	}
	if shared {
		t.Fatal("waiter reported shared result; it must have recomputed")
	}
	if resp.Tier != "necs" || retried.Load() != 1 {
		t.Fatalf("retry compute: tier=%q calls=%d", resp.Tier, retried.Load())
	}
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", nil); !hit {
		t.Fatal("retried result was not cached")
	}
}

// TestCacheSingleflightErrorShared: when the leader fails with an ordinary
// (non-context) error, every concurrent sharer receives that same error,
// nothing is cached, and the next request recomputes.
func TestCacheSingleflightErrorShared(t *testing.T) {
	c := newTTLCache(time.Minute, time.Now)
	sentinel := fmt.Errorf("model exploded")
	var calls atomic.Int32
	gate := make(chan struct{})
	fn := func() (api.RecommendResponse, error) {
		calls.Add(1)
		<-gate
		return api.RecommendResponse{}, sentinel
	}

	const n = 8
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, err := c.getOrDo(context.Background(), "k", fn)
			errs <- err
		}()
	}
	waitParked(t, c, "k", n-1)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("error stampede computed %d times, want exactly 1", got)
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, sentinel) {
			t.Fatalf("sharer err = %v, want the leader's error", err)
		}
	}
	if c.len() != 0 {
		t.Fatalf("error result cached (%d entries)", c.len())
	}
	gate2 := make(chan struct{})
	close(gate2)
	if _, _, _, err := c.getOrDo(context.Background(), "k", func() (api.RecommendResponse, error) {
		return api.RecommendResponse{Tier: "necs"}, nil
	}); err != nil {
		t.Fatalf("post-error recompute err = %v", err)
	}
}

// --- the cache as the only coalescer ---

// TestCacheNoStoreStillCoalesces: with storing off (Options.DisableCache)
// a stampede on one key still computes exactly once and every follower
// shares the leader's result; nothing is kept, so the next call computes
// again.
func TestCacheNoStoreStillCoalesces(t *testing.T) {
	c := newTTLCache(0, time.Now)
	var calls atomic.Int32
	gate := make(chan struct{})
	fn := func() (api.RecommendResponse, error) {
		calls.Add(1)
		<-gate
		return api.RecommendResponse{Tier: "necs"}, nil
	}

	const n = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, hit, shared, err := c.getOrDo(context.Background(), "k", fn)
			if err != nil || hit || resp.Tier != "necs" {
				t.Errorf("resp=%+v hit=%v err=%v", resp, hit, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	waitParked(t, c, "k", n-1)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("stampede computed %d times, want exactly 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("%d callers shared, want %d", got, n-1)
	}
	if c.len() != 0 {
		t.Fatalf("no-store cache holds %d entries", c.len())
	}
	if _, hit, _, _ := c.getOrDo(context.Background(), "k", fn); hit || calls.Load() != 2 {
		t.Fatalf("second call: hit=%v calls=%d, want a recompute", hit, calls.Load())
	}
}

// TestCacheAllWaitersCancelled: when every waiter gives up, each detaches
// with its own ctx.Err(), the leader still finishes, and nothing is left
// behind — no in-flight entry and no goroutine (waiting takes none).
func TestCacheAllWaitersCancelled(t *testing.T) {
	c := newTTLCache(0, time.Now)
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := c.getOrDo(context.Background(), "k", func() (api.RecommendResponse, error) {
			<-gate
			return api.RecommendResponse{Tier: "necs"}, nil
		})
		leaderDone <- err
	}()
	waitInflight(t, c, "k")

	const n = 8
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, _, _, err := c.getOrDo(ctx, "k", func() (api.RecommendResponse, error) {
				t.Error("a cancelled waiter must not compute")
				return api.RecommendResponse{}, nil
			})
			errs <- err
		}()
	}
	waitParked(t, c, "k", n)
	cancel()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	}
	close(gate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	c.mu.Lock()
	left := len(c.inflight)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d in-flight entries left behind", left)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// waitInflight blocks until some caller is computing key in c.
func waitInflight(t *testing.T, c *ttlCache, key string) {
	t.Helper()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.inflight[key] != nil
	})
}

// waitParked blocks until n callers have attached to key's in-flight call
// as waiters: from then on each of them gets that call's result (or its
// own cancellation), whatever the scheduler does next.
func waitParked(t *testing.T, c *ttlCache, key string, n int) {
	t.Helper()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		call := c.inflight[key]
		return call != nil && call.waiters >= n
	})
}

// waitFor polls cond until true or fails the test after a generous timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
