// Command litebench regenerates the paper's tables and figures on the
// sparksim testbed.
//
// Usage:
//
//	litebench -exp table6          # one experiment
//	litebench -exp all             # the full evaluation section
//	litebench -list                # show available experiments
//	litebench -exp table7 -configs 8 -seed 3
//
// Experiment ids follow the paper: fig1, table6 (includes fig7), fig8,
// table7, fig9, table8 (a and b), table9, table10, table11, fig10, table12,
// overhead.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"lite/internal/core"
	"lite/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	list := flag.Bool("list", false, "list available experiments")
	seed := flag.Int64("seed", 1, "random seed")
	configs := flag.Int("configs", 8, "sampled configurations per (app,size,cluster) in training")
	candidates := flag.Int("candidates", 20, "candidates per gold ranking case")
	workers := flag.Int("workers", 0, "candidate-scoring goroutines (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	core.SetScoreWorkers(*workers)

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.ConfigsPerInstance = *configs
	opts.GoldCandidates = *candidates
	suite := experiments.NewSuite(opts)

	runners := map[string]func() string{
		"fig1":      func() string { return experiments.Figure1(suite).Format() },
		"table6":    func() string { return experiments.Table6(suite).Format() },
		"fig8":      func() string { return experiments.Figure8(suite).Format() },
		"table7":    func() string { return experiments.Table7(suite).Format() },
		"fig9":      func() string { return experiments.Figure9(suite).Format() },
		"table8":    func() string { return experiments.Table8a(suite).Format() + "\n" + experiments.Table8b(suite).Format() },
		"table9":    func() string { return experiments.Table9(suite).Format() },
		"table10":   func() string { return experiments.Table10(suite).Format() },
		"table11":   func() string { return experiments.Table11(suite).Format() },
		"fig10":     func() string { return experiments.Figure10(suite, nil, 0).Format() },
		"table12":   func() string { return experiments.Table12(suite).Format() },
		"overhead":  func() string { return experiments.ColdStartOverhead(suite).Format() },
		"extra":     func() string { return experiments.Extra(suite).Format() },
		"ablation":  func() string { return experiments.Ablation(suite).Format() },
		"faults":    func() string { return experiments.Faults(suite).Format() },
		"sessions":  func() string { return experiments.Sessions(suite).Format() },
		"coldstart": func() string { return experiments.ColdStartRetrieval(suite).Format() },
	}
	order := []string{"fig1", "fig9", "table6", "fig8", "table7", "table8", "table9", "table10", "table11", "fig10", "table12", "overhead", "extra", "ablation", "faults", "sessions", "coldstart"}

	if *list {
		ids := make([]string, 0, len(runners))
		for id := range runners {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	run := func(id string) {
		f, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		out := f()
		fmt.Printf("=== %s (ran in %v) ===\n%s\n", id, time.Since(start).Round(time.Millisecond), out)
	}
	if *exp == "all" {
		for _, id := range order {
			run(id)
		}
		return
	}
	for _, id := range strings.Split(*exp, ",") {
		run(strings.TrimSpace(id))
	}
}
