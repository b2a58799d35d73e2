package main

import (
	"fmt"

	"lite/internal/core"
	"lite/internal/serve"
	"lite/internal/sparksim"
	"lite/pkg/api"
)

// A checker validates every 200 one client goroutine receives. It is not
// safe for concurrent use: each client owns one, which is also what makes
// "generation never decreases" a per-client statement.
type checker struct {
	// unseen: the requests are for never-registered applications.
	unseen  bool
	lastGen uint64
}

func (w *workloadDef) newChecker() *checker { return &checker{unseen: w.unseen} }

// tierAllowed: an unseen app has no NECS tier (the estimator never
// instrumented it). The offline-trained model answers every registered app
// from NECS, so a lower tier at generation 0 means serving broke; after a
// hot-swap the degradation chain may legitimately catch a key the retrained
// model screens out entirely, so later generations may answer from any tier
// (core.tier_necs_share reports how often they do).
func (c *checker) tierAllowed(tier core.Tier, gen uint64) bool {
	switch tier {
	case core.TierNECS:
		return !c.unseen
	case core.TierRetrieval, core.TierSafeDefault:
		return c.unseen || gen > 0
	case core.TierACGRegion:
		return !c.unseen && gen > 0
	}
	return false
}

// check returns the served configuration, or why the answer is wrong.
func (c *checker) check(req api.RecommendRequest, resp api.RecommendResponse) (sparksim.Config, error) {
	var zero sparksim.Config
	if resp.App != req.App || resp.Cluster != req.Cluster || resp.SizeMB != req.SizeMB {
		return zero, fmt.Errorf("answer is for (%s, %g MB, %s), asked (%s, %g MB, %s)",
			resp.App, resp.SizeMB, resp.Cluster, req.App, req.SizeMB, req.Cluster)
	}
	if len(resp.Config) != sparksim.NumKnobs {
		return zero, fmt.Errorf("config has %d knobs, want %d", len(resp.Config), sparksim.NumKnobs)
	}
	cfg, err := serve.ConfigFromMap(resp.Config)
	if err != nil {
		return zero, fmt.Errorf("config does not parse: %w", err)
	}
	env, ok := serve.ClusterByName(resp.Cluster)
	if !ok {
		return zero, fmt.Errorf("unknown cluster %q in answer", resp.Cluster)
	}
	if core.ForceFeasible(cfg, env) != cfg {
		return zero, fmt.Errorf("config is not feasible on cluster %s as served", resp.Cluster)
	}
	if !c.tierAllowed(core.Tier(resp.Tier), resp.Generation) {
		return zero, fmt.Errorf("tier %q at generation %d (unseen app: %v)", resp.Tier, resp.Generation, c.unseen)
	}
	if resp.Generation < c.lastGen {
		return zero, fmt.Errorf("generation went back from %d to %d", c.lastGen, resp.Generation)
	}
	c.lastGen = resp.Generation
	return cfg, nil
}

// speedup executes the served configuration and Spark's default (forced
// feasible, as a user without a tuner would have to) on the simulator and
// returns default seconds ÷ served seconds. A run the simulator fails (an
// out-of-memory stage, the two-hour cap) reads sparksim.FailCap seconds, so
// a served configuration that fails is a large loss, not an error: the
// request was answered correctly, the answer was bad.
func speedup(k key, cfg sparksim.Config) (ratio float64, failed bool, err error) {
	name := k.tmpl.Spec.Name
	got, err := serve.SimulateOnce(name, k.sizeMB, k.cluster, cfg)
	if err != nil {
		return 0, false, err
	}
	env, _ := serve.ClusterByName(k.cluster)
	base, err := serve.SimulateOnce(name, k.sizeMB, k.cluster, core.ForceFeasible(sparksim.DefaultConfig(), env))
	if err != nil {
		return 0, false, err
	}
	return base.Seconds / got.Seconds, got.Failed, nil
}
