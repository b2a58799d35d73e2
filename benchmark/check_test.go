package main

import (
	"strings"
	"testing"

	"lite/internal/core"
	"lite/internal/sparksim"
	"lite/internal/workload"
	"lite/pkg/api"
)

// goodAnswer is a response the checker must accept: the default
// configuration forced feasible for the cluster, from the NECS tier.
func goodAnswer(t *testing.T) (api.RecommendRequest, api.RecommendResponse) {
	t.Helper()
	app := workload.All()[0]
	req := api.RecommendRequest{App: app.Spec.Name, SizeMB: 1024, Cluster: "C"}
	cfg := core.ForceFeasible(sparksim.DefaultConfig(), sparksim.ClusterC)
	conf := map[string]float64{}
	for i, k := range sparksim.Knobs {
		conf[k.Name] = cfg[i]
	}
	return req, api.RecommendResponse{
		App: req.App, SizeMB: req.SizeMB, Cluster: req.Cluster,
		Config: conf, Tier: "necs",
	}
}

func TestCheckerAcceptsAGoodAnswer(t *testing.T) {
	req, resp := goodAnswer(t)
	ck := &checker{}
	resp.Generation = 3
	if _, err := ck.check(req, resp); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	if ck.lastGen != 3 {
		t.Fatalf("lastGen = %d, want 3", ck.lastGen)
	}
	// After a hot-swap the degradation chain may answer a registered app.
	resp.Tier = "retrieval"
	if _, err := ck.check(req, resp); err != nil {
		t.Fatalf("degraded tier at generation 3 rejected: %v", err)
	}
}

func TestCheckerCountsBrokenAnswers(t *testing.T) {
	memKnob := sparksim.Knobs[sparksim.KnobExecutorMemory].Name
	cases := []struct {
		name  string
		wreck func(*api.RecommendResponse)
		want  string
	}{
		{"infeasible config", func(r *api.RecommendResponse) { r.Config[memKnob] = sparksim.Knobs[sparksim.KnobExecutorMemory].Max }, "not feasible"},
		{"unknown knob", func(r *api.RecommendResponse) {
			delete(r.Config, memKnob)
			r.Config["spark.no.such.knob"] = 1
		}, "does not parse"},
		{"missing knob", func(r *api.RecommendResponse) { delete(r.Config, memKnob) }, "knobs"},
		{"degraded tier", func(r *api.RecommendResponse) { r.Tier = "safe-default" }, "tier"},
		{"generation went back", func(r *api.RecommendResponse) { r.Generation = 2 }, "went back"},
		{"answer for another key", func(r *api.RecommendResponse) { r.Cluster = "A" }, "asked"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, resp := goodAnswer(t)
			ck := &checker{}
			if tc.name == "generation went back" {
				ck.lastGen = 3
			}
			tc.wreck(&resp)
			_, err := ck.check(req, resp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
			// What the client loops do with it: the request counts as failed.
			var tl tally
			tl.attempted++
			tl.fail(err)
			if tl.failed != 1 || tl.firstErr == nil {
				t.Fatalf("tally = %+v, want one failure", tl)
			}
		})
	}
}

func TestCheckerTiersPerWorkload(t *testing.T) {
	req, resp := goodAnswer(t)
	resp.Tier = "retrieval"
	if _, err := workloadByName("unseen_app").newChecker().check(req, resp); err != nil {
		t.Fatalf("unseen_app must accept the retrieval tier: %v", err)
	}
	if _, err := workloadByName("cold_miss").newChecker().check(req, resp); err == nil {
		t.Fatal("cold_miss must reject a registered app answered below NECS")
	}
}

func TestSpeedupChargesAFailedRun(t *testing.T) {
	k := key{tmpl: workload.ByName("PageRank"), sizeMB: 32768, cluster: "C"}
	// One small executor with minimal memory cannot hold a 32 GB graph.
	var tiny sparksim.Config
	for i, knob := range sparksim.Knobs {
		tiny[i] = knob.Min
	}
	tiny = core.ForceFeasible(tiny, sparksim.ClusterC)
	ratio, failed, err := speedup(k, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 0 {
		t.Fatalf("ratio = %v, want positive", ratio)
	}
	if failed && ratio > 1 {
		t.Fatalf("a failed run reads FailCap seconds and cannot be a speed-up, got ratio %v", ratio)
	}
}
