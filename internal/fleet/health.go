package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"lite/pkg/api"
)

// healthLoop actively probes every registered shard's /healthz on
// ProbeInterval. Policy:
//
//   - FailAfter consecutive bad probes (connection error, non-200, or a
//     probe slower than ProbeTimeout) eject the shard: its vnodes leave
//     the ring and its arc falls to the clockwise successors.
//   - An ejected shard keeps being probed. RecoverAfter consecutive good
//     probes re-admit it — but good probes before the shard's readmit
//     backoff has elapsed count for nothing, so a flapping shard re-enters
//     the ring at a geometrically decreasing rate, not every probe cycle.
//
// Probes run concurrently across shards so one hung shard cannot delay
// detection on the others.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stopCtx.Done():
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

// probeAll probes every shard concurrently and applies the results.
func (rt *Router) probeAll() {
	rt.mu.Lock()
	type target struct{ id, url string }
	targets := make([]target, 0, len(rt.shards))
	for id, sh := range rt.shards {
		targets = append(targets, target{id, sh.url})
	}
	rt.mu.Unlock()

	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t target) {
			defer wg.Done()
			h, err := rt.probe(t.url)
			rt.applyProbe(t.id, h, err)
		}(t)
	}
	wg.Wait()
}

// probe fetches and parses one shard's JSON /healthz.
func (rt *Router) probe(url string) (api.HealthResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		return api.HealthResponse{}, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return api.HealthResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.HealthResponse{}, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return api.HealthResponse{}, fmt.Errorf("healthz body: %w", err)
	}
	return h, nil
}

// applyProbe folds one probe result into the shard's state, ejecting or
// re-admitting per the policy above.
func (rt *Router) applyProbe(id string, h api.HealthResponse, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sh := rt.shards[id]
	if sh == nil {
		return
	}
	if err != nil {
		rt.reg.Counter(fmt.Sprintf("lite_fleet_probe_failures_total{shard=%q}", id)).Inc()
		sh.consecOK = 0
		sh.consecFail++
		if sh.up && sh.consecFail >= rt.opts.FailAfter {
			rt.ejectLocked(sh, fmt.Sprintf("health: %v", err))
		}
		return
	}
	sh.health = h
	sh.healthKnown = true
	sh.consecFail = 0
	sh.lastErr = ""
	if sh.up {
		return
	}
	if rt.opts.Now().Before(sh.readmitAfter) {
		return // still in backoff: recovery evidence does not count yet
	}
	sh.consecOK++
	if sh.consecOK < rt.opts.RecoverAfter {
		return
	}
	sh.up = true
	sh.consecOK = 0
	if rt.ring.Add(id) {
		rt.reg.Counter("lite_fleet_ring_moves_total").Inc()
	}
	rt.reg.Counter("lite_fleet_readmissions_total").Inc()
	rt.shardUpGauge(id).Set(1)
	rt.opts.Logf("shard %s recovered and re-admitted (generation %d, %d in ring)",
		id, h.Generation, rt.ring.Len())
}
