package core

import (
	"fmt"
	"math/rand"
	"sort"

	"lite/internal/instrument"
	"lite/internal/sparksim"
	"lite/internal/workload"
)

// Dataset bundles raw application runs with their stage-level instances.
type Dataset struct {
	Apps      []*workload.App
	Runs      []instrument.AppInstance
	Instances []instrument.StageInstance
	// Stats accounts for the robustness machinery's extra work (repeat
	// runs on flaky environments, retries of failed runs, censored labels).
	Stats CollectStats
}

// CollectStats summarizes what robust collection did beyond the happy path.
type CollectStats struct {
	// Runs is the number of (app, size, cluster, config) instances kept.
	Runs int
	// RepeatRuns counts the extra executions performed because the
	// environment injects faults and Repeats > 1.
	RepeatRuns int
	// Retries counts re-executions of failed runs (FlakyRetries).
	Retries int
	// RetrySeconds is the simulated time burned by failed attempts that
	// were retried — the backoff-equivalent cost the collection paid.
	RetrySeconds float64
	// Censored counts kept runs whose label is the FailCap ceiling (the
	// run failed or exceeded two hours even after retries).
	Censored int
}

// CollectOptions controls offline training-data collection (paper §II:
// "repeatedly sampling knob values and running applications ... on small
// datasets").
type CollectOptions struct {
	// ConfigsPerInstance is how many sampled configurations each
	// (application, datasize, cluster) instance is executed with.
	ConfigsPerInstance int
	// Clusters to collect on (default: all three).
	Clusters []sparksim.Environment
	// IncludeDefault adds the default configuration to every sample set.
	IncludeDefault bool
	// Sizes selects which of the four training sizes to use (nil = all).
	Sizes []int

	// Repeats executes each (app, size, cluster, config) instance this many
	// times when the cluster injects faults, keeping the run with the
	// median execution time as the label (repeat runs draw decorrelated
	// fault seeds deterministically). Values below 2 — and fault-free
	// environments — collect exactly one run, the pre-robustness behavior.
	Repeats int
	// FlakyRetries re-executes a failed run up to this many extra times
	// with fresh fault seeds before accepting the failure as the label.
	// The failed attempts' simulated seconds accumulate in
	// Dataset.Stats.RetrySeconds (deterministic backoff-equivalent cost
	// accounting). Zero disables retrying.
	FlakyRetries int
}

// DefaultCollectOptions matches the experiments' standard collection.
func DefaultCollectOptions() CollectOptions {
	return CollectOptions{
		ConfigsPerInstance: 8,
		Clusters:           sparksim.AllClusters,
		IncludeDefault:     true,
	}
}

// Collect gathers the offline training set for the given applications by
// running each on its small training datasizes under sampled
// configurations, then segmenting runs into stage-level instances.
func Collect(apps []*workload.App, opts CollectOptions, rng *rand.Rand) *Dataset {
	ds := &Dataset{Apps: apps}
	sizeIdx := opts.Sizes
	for _, app := range apps {
		if sizeIdx == nil {
			sizeIdx = []int{0, 1, 2, 3}
		}
		for _, si := range sizeIdx {
			size := app.Sizes.Train[si]
			data := app.Spec.MakeData(size)
			for _, env := range opts.Clusters {
				cfgs := make([]sparksim.Config, 0, opts.ConfigsPerInstance+1)
				if opts.IncludeDefault {
					cfgs = append(cfgs, sparksim.DefaultConfig())
				}
				for len(cfgs) < opts.ConfigsPerInstance {
					cfgs = append(cfgs, sparksim.RandomConfig(rng))
				}
				for _, cfg := range cfgs {
					run := collectRun(app.Spec, data, env, cfg, opts, &ds.Stats)
					ds.Runs = append(ds.Runs, run)
					ds.Instances = append(ds.Instances, run.Stages...)
				}
			}
		}
	}
	return ds
}

// collectRun executes one training instance robustly. On fault-free
// environments (or with Repeats/FlakyRetries unset) it is exactly one
// Simulate call — the original collection path. On fault-injecting
// environments it retries failed runs with fresh fault seeds (capped,
// cost-accounted) and repeats flaky instances, labeling with the median-time
// run so one unlucky straggler cannot poison the label.
func collectRun(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment, cfg sparksim.Config, opts CollectOptions, stats *CollectStats) instrument.AppInstance {
	stats.Runs++
	if !env.Faults.Active() || (opts.Repeats < 2 && opts.FlakyRetries < 1) {
		run := instrument.Run(app, data, env, cfg)
		if run.Result.Failed {
			stats.Censored++
		}
		return run
	}

	repeats := opts.Repeats
	if repeats < 1 {
		repeats = 1
	}
	runs := make([]instrument.AppInstance, 0, repeats)
	for r := 0; r < repeats; r++ {
		// Decorrelate the repeat's faults deterministically; large odd
		// strides keep repeat and retry seed streams disjoint.
		e := env.WithFaults(env.Faults.Reseeded(int64(r) * 1_000_003))
		run := instrument.Run(app, data, e, cfg)
		for a := 1; run.Result.Failed && a <= opts.FlakyRetries; a++ {
			stats.Retries++
			stats.RetrySeconds += run.Result.Seconds
			e = env.WithFaults(env.Faults.Reseeded(int64(r)*1_000_003 + int64(a)*7919))
			run = instrument.Run(app, data, e, cfg)
		}
		runs = append(runs, run)
		stats.RepeatRuns++
	}
	stats.RepeatRuns-- // the kept run is not "extra"

	// Keep the run with the median total time (ties break toward the
	// earlier repeat, so selection is deterministic).
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return runs[order[a]].Result.Seconds < runs[order[b]].Result.Seconds
	})
	kept := runs[order[len(order)/2]]
	if kept.Result.Failed {
		stats.Censored++
	}
	return kept
}

// EncodeAll deduplicates and encodes the dataset's stage instances.
// Iterated stages within one run share identical inputs and nearly
// identical labels, so they collapse into one weighted instance with the
// mean label — the training objective is unchanged but epochs are ~4–10×
// cheaper. The raw (pre-dedup) counts remain available via the Dataset for
// the Figure 9 augmentation statistics.
func EncodeAll(enc *Encoder, instances []instrument.StageInstance) []*Encoded {
	type agg struct {
		enc   *Encoded
		sumY  float64
		count float64
	}
	byKey := map[string]*agg{}
	var order []string
	for i := range instances {
		inst := &instances[i]
		key := fmt.Sprintf("%s|%d|%s|%.0f|%d|%d", inst.AppName, inst.StageIndex, inst.Env.Name,
			inst.Data.SizeMB, inst.Data.Iterations, cfgKey(inst.Config))
		a, ok := byKey[key]
		if !ok {
			a = &agg{enc: enc.Encode(inst)}
			byKey[key] = a
			order = append(order, key)
		}
		a.sumY += LabelOf(inst.Seconds)
		a.count++
	}
	out := make([]*Encoded, 0, len(order))
	for _, key := range order {
		a := byKey[key]
		a.enc.Y = a.sumY / a.count
		a.enc.Weight = a.count
		out = append(out, a.enc)
	}
	return out
}

// cfgKey quantizes a configuration into a hashable identity.
func cfgKey(c sparksim.Config) int {
	h := 0
	for i, v := range c {
		h = h*31 + int(v*100) + i
	}
	return h
}
