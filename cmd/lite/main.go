// Command lite is the CLI front-end of the LITE tuner: it trains the
// estimator on simulated small-data runs and prints knob recommendations
// for an application / datasize / cluster.
//
// Usage:
//
//	lite apps                             # list the spark-bench applications
//	lite knobs                            # list the 16 tunable knobs
//	lite recommend -app PageRank -size 4096 -cluster C
//	lite simulate  -app PageRank -size 4096 -cluster C   # default vs tuned
//	lite inspect   -app Terasort          # show stages, code and DAGs
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"lite/internal/core"
	"lite/internal/sparksim"
	"lite/internal/wal"
	"lite/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "apps":
		cmdApps()
	case "knobs":
		cmdKnobs()
	case "recommend":
		cmdRecommend(os.Args[2:], false)
	case "simulate":
		cmdRecommend(os.Args[2:], true)
	case "inspect":
		cmdInspect(os.Args[2:])
	case "analyze":
		cmdAnalyze(os.Args[2:])
	case "train":
		cmdTrain(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

// cmdTrain runs the offline phase once and persists the tuner to disk, so
// subsequent recommendations load in milliseconds instead of retraining.
func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "lite-tuner.json", "output path for the trained tuner")
	configs := fs.Int("configs", 8, "training configurations per (app,size,cluster)")
	seed := fs.Int64("seed", 1, "random seed")
	faults := fs.Float64("faults", 0, "transient-fault intensity injected into collection (0 = off, 1 = full)")
	fs.Parse(args)

	opts := core.DefaultTrainOptions()
	opts.Collect.ConfigsPerInstance = *configs
	opts.Seed = *seed
	if *faults > 0 {
		// Collect on fault-injecting clusters with the robust path: repeat
		// flaky runs and retry failures before accepting a censored label.
		profile := sparksim.ScaledFaults(*faults, *seed)
		clusters := make([]sparksim.Environment, len(sparksim.AllClusters))
		for i, env := range sparksim.AllClusters {
			clusters[i] = env.WithFaults(profile)
		}
		opts.Collect.Clusters = clusters
		opts.Collect.Repeats = 3
		opts.Collect.FlakyRetries = 2
	}
	fmt.Fprintf(os.Stderr, "training LITE on all %d applications…\n", len(workload.All()))
	tuner, ds := core.Train(workload.All(), opts)
	fmt.Fprintf(os.Stderr, "trained on %d runs (%d stage instances)\n", len(ds.Runs), len(ds.Instances))
	if *faults > 0 {
		st := ds.Stats
		fmt.Fprintf(os.Stderr, "robust collection: %d repeat runs, %d retries (%.0f s burned), %d censored labels\n",
			st.RepeatRuns, st.Retries, st.RetrySeconds, st.Censored)
	}

	if err := wal.WriteFileAtomic(wal.OSFS{}, *out, tuner.Save); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("tuner written to %s\n", *out)
}

// cmdAnalyze sweeps each knob independently around the default (or expert)
// configuration and reports its sensitivity for the application — the kind
// of one-knob-at-a-time analysis tuning guides are built from, and a handy
// way to see the simulator's response surfaces.
func cmdAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	appName := fs.String("app", "", "application name or abbreviation")
	sizeMB := fs.Float64("size", 0, "input size in MB (default: the app's validation size)")
	cluster := fs.String("cluster", "C", "cluster A, B or C")
	points := fs.Int("points", 7, "sweep points per knob")
	fs.Parse(args)

	app := workload.ByName(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown application %q (try 'lite apps')\n", *appName)
		os.Exit(2)
	}
	env, ok := clusterByName(*cluster)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown cluster %q\n", *cluster)
		os.Exit(2)
	}
	size := *sizeMB
	if size <= 0 {
		size = app.Sizes.Valid
	}
	data := app.Spec.MakeData(size)

	base := sparksim.DefaultConfig()
	baseT := sparksim.Simulate(app.Spec, data, env, base).Seconds
	fmt.Printf("%s on %.0f MB, cluster %s — default configuration: %.1f s\n\n", app.Spec.Name, size, env.Name, baseT)
	fmt.Printf("%-34s %-12s %-12s %s\n", "knob", "best value", "best time", "sensitivity (max/min over sweep)")
	for i, k := range sparksim.Knobs {
		bestV, bestT := base[i], baseT
		worstT := baseT
		for p := 0; p < *points; p++ {
			v := k.Min + (k.Max-k.Min)*float64(p)/float64(*points-1)
			cfg := base
			cfg[i] = v
			t := sparksim.Simulate(app.Spec, data, env, cfg.Clamp()).Seconds
			if t < bestT {
				bestT, bestV = t, cfg.Clamp()[i]
			}
			if t > worstT {
				worstT = t
			}
		}
		fmt.Printf("%-34s %-12.6g %-12.1f %.2fx\n", k.Name, bestV, bestT, worstT/bestT)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lite {apps|knobs|train|recommend|simulate|inspect|analyze} [flags]")
	fmt.Fprintln(os.Stderr, "  train     [-out tuner.json] [-configs N] [-seed S] [-faults X]\n  recommend -app <name> [-size MB] [-cluster A|B|C] [-faults X] [-model tuner.json]")
	fmt.Fprintln(os.Stderr, "  simulate  -app <name> [-size MB] [-cluster A|B|C] [-faults X]   (runs default vs tuned)")
	fmt.Fprintln(os.Stderr, "  inspect   -app <name>\n  analyze   -app <name> [-size MB] [-cluster A|B|C]  (per-knob sensitivity sweep)")
}

func cmdApps() {
	fmt.Printf("%-28s %-5s %-10s %s\n", "application", "abbr", "family", "train sizes (MB) / valid / test")
	for _, a := range workload.All() {
		fmt.Printf("%-28s %-5s %-10s %v / %v / %v\n",
			a.Spec.Name, a.Spec.Abbrev, a.Spec.Family, a.Sizes.Train, a.Sizes.Valid, a.Sizes.Test)
	}
}

func cmdKnobs() {
	fmt.Printf("%-34s %-8s %-18s %s\n", "knob", "default", "range", "description")
	for _, k := range sparksim.Knobs {
		unit := k.Unit
		if unit != "" {
			unit = " " + unit
		}
		fmt.Printf("%-34s %-8v [%v, %v]%-6s %s\n", k.Name, k.Default, k.Min, k.Max, unit, k.Brief)
	}
}

func clusterByName(name string) (sparksim.Environment, bool) {
	for _, e := range sparksim.AllClusters {
		if strings.EqualFold(e.Name, name) {
			return e, true
		}
	}
	return sparksim.Environment{}, false
}

func cmdRecommend(args []string, alsoSimulate bool) {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	appName := fs.String("app", "", "application name or abbreviation")
	sizeMB := fs.Float64("size", 0, "input size in MB (default: the app's large testing size)")
	cluster := fs.String("cluster", "C", "cluster A, B or C")
	candidates := fs.Int("candidates", 64, "knob candidates sampled by ACG")
	configs := fs.Int("configs", 8, "training configurations per (app,size,cluster)")
	seed := fs.Int64("seed", 1, "random seed")
	faults := fs.Float64("faults", 0, "transient-fault intensity on the serving cluster (0 = off, 1 = full)")
	modelPath := fs.String("model", "", "load a tuner saved by 'lite train' instead of retraining")
	fs.Parse(args)

	app := workload.ByName(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown application %q (try 'lite apps')\n", *appName)
		os.Exit(2)
	}
	env, ok := clusterByName(*cluster)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown cluster %q\n", *cluster)
		os.Exit(2)
	}
	env = env.WithFaults(sparksim.ScaledFaults(*faults, *seed))
	size := *sizeMB
	if size <= 0 {
		size = app.Sizes.Test
	}

	// Without -model, fall back to a default model file in the working
	// directory (the 'lite train' default output first) before retraining.
	path := *modelPath
	if path == "" {
		for _, candidate := range []string{"lite-tuner.json", "lite.model"} {
			if _, err := os.Stat(candidate); err == nil {
				path = candidate
				fmt.Fprintf(os.Stderr, "using default model file %s (pass -model to override)\n", path)
				break
			}
		}
	}

	var tuner *core.Tuner
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tuner, err = core.LoadTuner(f, *seed)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "loaded tuner from %s\n", path)
	} else {
		fmt.Fprintf(os.Stderr, "no saved model found, training from scratch (offline phase, %d configs per instance)…\n", *configs)
		opts := core.DefaultTrainOptions()
		opts.Collect.ConfigsPerInstance = *configs
		opts.Seed = *seed
		tuner, _ = core.Train(workload.All(), opts)
	}
	tuner.NumCandidates = *candidates

	data := app.Spec.MakeData(size)
	rec, err := tuner.RecommendSafe(app.Spec, data, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("recommendation for %s on %.0f MB, cluster %s (decided in %v, tier: %s):\n",
		app.Spec.Name, size, env.Name, rec.Overhead, rec.Tier)
	for _, note := range rec.Notes {
		fmt.Printf("  degraded: %s\n", note)
	}
	for i, k := range sparksim.Knobs {
		switch k.Type {
		case sparksim.KnobFloat:
			fmt.Printf("  %-34s %.2f\n", k.Name, rec.Config[i])
		case sparksim.KnobBool:
			fmt.Printf("  %-34s %v\n", k.Name, rec.Config.Bool(i))
		default:
			fmt.Printf("  %-34s %d%s\n", k.Name, int(rec.Config[i]), suffix(k.Unit))
		}
	}
	if !math.IsNaN(rec.PredictedSeconds) {
		fmt.Printf("predicted execution time: %.1f s\n", rec.PredictedSeconds)
	}

	if alsoSimulate {
		def := sparksim.Simulate(app.Spec, data, env, sparksim.DefaultConfig())
		got := sparksim.Simulate(app.Spec, data, env, rec.Config)
		fmt.Printf("\nsimulated execution:\n")
		fmt.Printf("  default configuration: %.1f s%s\n", def.Seconds, failNote(def))
		fmt.Printf("  LITE recommendation:   %.1f s%s\n", got.Seconds, failNote(got))
		if got.Seconds > 0 && !got.Failed {
			fmt.Printf("  speedup: %.1fx\n", def.Seconds/got.Seconds)
		}
	}
}

func suffix(unit string) string {
	if unit == "" {
		return ""
	}
	return " " + unit
}

func failNote(r sparksim.Result) string {
	if r.Failed {
		return " (FAILED: " + r.FailReason + ")"
	}
	return ""
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	appName := fs.String("app", "", "application name or abbreviation")
	fs.Parse(args)
	app := workload.ByName(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown application %q (try 'lite apps')\n", *appName)
		os.Exit(2)
	}
	s := app.Spec
	fmt.Printf("%s (%s, %s)\n\nmain-body code:\n%s\n", s.Name, s.Abbrev, s.Family, indent(s.MainCode))
	fmt.Printf("\nstages (%d):\n", len(s.Stages))
	for i, st := range s.Stages {
		flags := ""
		if st.Iterated {
			flags += " [iterated]"
		}
		if st.ReadsCache {
			flags += " [reads-cache]"
		}
		fmt.Printf("\n%d. %s%s\n   DAG ops: %s\n   stage-level code:\n%s\n",
			i, st.Name, flags, strings.Join(st.Ops, " → "), indent(st.Code))
	}
}

func indent(code string) string {
	lines := strings.Split(code, "\n")
	for i := range lines {
		lines[i] = "      " + lines[i]
	}
	return strings.Join(lines, "\n")
}
