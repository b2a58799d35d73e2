package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"lite/pkg/api"
)

// flipLoop is the fleet's hot-swap coordinator (publish-then-flip,
// DESIGN.md §10). The trainer shard retrains and validation-gates models
// exactly as a standalone liteserve does, persisting each accepted
// generation to its snapshot file *before* publishing it (the serving
// layer's persist-then-publish invariant). The coordinator watches the
// trainer's generation through the health checker's probes; when it
// advances, every other live shard is flipped to the already-durable
// snapshot via POST /admin/flip with the same generation number. A shard
// that was down during a flip (or restarted at generation 0) is caught on
// a later tick: any live shard reporting a generation below the fleet
// target is re-flipped until it converges. Mixed generations are therefore
// visible only inside one flip window.
func (rt *Router) flipLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stopCtx.Done():
			return
		case <-ticker.C:
			rt.coordinate()
		}
	}
}

// coordinate runs one flip pass: raise the fleet target to the trainer's
// live generation, then flip every lagging live shard to it.
func (rt *Router) coordinate() {
	type flipTarget struct{ id, url string }
	var todo []flipTarget

	rt.mu.Lock()
	tr := rt.shards[rt.opts.TrainerID]
	if tr == nil || !tr.healthKnown {
		rt.mu.Unlock()
		return
	}
	if tr.health.Generation > rt.fleetGen {
		rt.fleetGen = tr.health.Generation
		rt.opts.Logf("trainer %s published generation %d; flipping fleet", tr.id, rt.fleetGen)
	}
	target := rt.fleetGen
	if target > 0 {
		// The trainer itself is included: after a crash it resumes its
		// adapted snapshot but restarts generation numbering at 0, and a
		// flip to its own snapshot at the fleet target renumbers it without
		// changing its weights — retraining then continues from target+1.
		for id, sh := range rt.shards {
			if !sh.up || !sh.healthKnown {
				continue
			}
			if sh.health.Generation < target {
				todo = append(todo, flipTarget{id, sh.url})
			}
		}
	}
	rt.mu.Unlock()

	for _, t := range todo {
		gen, err := rt.flipShard(t.url, target)
		if err != nil && rt.stopCtx.Err() != nil {
			return // Stop cancelled the flip: shutting down, not a failure
		}
		if err != nil {
			rt.reg.Counter("lite_fleet_flip_errors_total").Inc()
			rt.opts.Logf("flip shard %s to generation %d: %v (will retry)", t.id, target, err)
			continue
		}
		rt.reg.Counter("lite_fleet_flips_total").Inc()
		rt.mu.Lock()
		if sh := rt.shards[t.id]; sh != nil && sh.healthKnown && gen > sh.health.Generation {
			// Record the flip immediately so the next tick does not re-flip
			// a shard the prober has not re-read yet.
			sh.health.Generation = gen
		}
		rt.mu.Unlock()
		rt.opts.Logf("shard %s flipped to generation %d", t.id, gen)
	}
}

// flipShard asks one shard to load the trainer's published snapshot as
// generation gen and returns the shard's resulting generation. The POST
// gives up after rt.flipTimeout, or as soon as Stop is called: a shard
// that never answers is retried on a later pass, not waited for.
func (rt *Router) flipShard(url string, gen uint64) (uint64, error) {
	body, err := json.Marshal(api.FlipRequest{SnapshotPath: rt.opts.TrainerSnapshot, Generation: gen})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(rt.stopCtx, rt.flipTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/admin/flip", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("flip status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var fr api.FlipResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return 0, err
	}
	return fr.Generation, nil
}
