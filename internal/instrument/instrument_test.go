package instrument

import (
	"math"
	"strings"
	"testing"

	"lite/internal/sparksim"
	"lite/internal/workload"
)

func TestRunSegmentsIntoStageInstances(t *testing.T) {
	app := workload.ByName("PageRank").Spec
	d := app.MakeData(100)
	inst := Run(app, d, sparksim.ClusterA, sparksim.DefaultConfig())
	if inst.Result.Failed {
		t.Fatalf("run failed: %s", inst.Result.FailReason)
	}
	// PageRank: 2 fixed + 2 iterated × iterations stages.
	want := 2 + 2*d.Iterations
	if len(inst.Stages) != want {
		t.Fatalf("got %d stage instances, want %d", len(inst.Stages), want)
	}
}

func TestStageInstancesShareAppFeatures(t *testing.T) {
	// Paper §III-C: instances from the same application instance share
	// knob, data and environment features; only code/DAG/label differ.
	app := workload.ByName("KMeans").Spec
	d := app.MakeData(140)
	cfg := sparksim.DefaultConfig()
	inst := Run(app, d, sparksim.ClusterB, cfg)
	for i := range inst.Stages {
		s := &inst.Stages[i]
		if s.Config != cfg {
			t.Fatal("stage instance has different config")
		}
		if s.Data != d {
			t.Fatal("stage instance has different data spec")
		}
		if s.Env != sparksim.ClusterB {
			t.Fatal("stage instance has different environment")
		}
		if s.AppName != "KMeans" {
			t.Fatalf("wrong app name %q", s.AppName)
		}
	}
}

func TestStageLabelsSumToAppTime(t *testing.T) {
	app := workload.ByName("Terasort").Spec
	d := app.MakeData(160)
	inst := Run(app, d, sparksim.ClusterA, sparksim.DefaultConfig())
	var sum float64
	for _, s := range inst.Stages {
		sum += s.Seconds
	}
	if math.Abs(sum-inst.Result.Seconds) > 1e-6 {
		t.Fatalf("stage label sum %v != app time %v", sum, inst.Result.Seconds)
	}
}

func TestFailedRunsYieldCappedInstances(t *testing.T) {
	app := workload.ByName("WordCount").Spec
	cfg := sparksim.DefaultConfig()
	cfg[sparksim.KnobExecutorMemory] = 32 // does not fit on cluster C
	inst := Run(app, app.MakeData(100), sparksim.ClusterC, cfg)
	if !inst.Result.Failed {
		t.Fatal("expected failure")
	}
	if len(inst.Stages) == 0 {
		t.Fatal("failed runs must still yield training instances")
	}
	var sum float64
	for _, s := range inst.Stages {
		sum += s.Seconds
	}
	if math.Abs(sum-sparksim.FailCap) > 1e-6 {
		t.Fatalf("failed instance labels should sum to FailCap, got %v", sum)
	}
}

func TestStageInstanceCarriesCodeAndDAG(t *testing.T) {
	app := workload.ByName("Terasort").Spec
	inst := Run(app, app.MakeData(100), sparksim.ClusterA, sparksim.DefaultConfig())
	for _, s := range inst.Stages {
		if s.Code == "" {
			t.Fatalf("stage %s lacks code", s.StageName)
		}
		if len(s.Ops) == 0 {
			t.Fatalf("stage %s lacks DAG ops", s.StageName)
		}
	}
	// The shuffleSort stage's expanded code must contain instrumented RDD
	// calls that the main body lacks (paper Fig. 5).
	var sortStage *StageInstance
	for i := range inst.Stages {
		if inst.Stages[i].StageName == "shuffleSort" {
			sortStage = &inst.Stages[i]
		}
	}
	if sortStage == nil {
		t.Fatal("missing shuffleSort stage")
	}
	if !strings.Contains(sortStage.Code, "mapPartitions") {
		t.Fatal("expanded stage code should expose internal mapPartitions call")
	}
}

func TestAugmentationStats(t *testing.T) {
	tokenize := strings.Fields
	var instances []AppInstance
	mainCode := map[string]string{}
	for _, name := range []string{"Terasort", "PageRank"} {
		app := workload.ByName(name)
		mainCode[name] = app.Spec.MainCode
		for _, size := range app.Sizes.Train {
			instances = append(instances, Run(app.Spec, app.Spec.MakeData(size), sparksim.ClusterA, sparksim.DefaultConfig()))
		}
	}
	stats := Augmentation(instances, mainCode, tokenize)
	for name, s := range stats {
		if s.AppInstances != 4 {
			t.Fatalf("%s: %d app instances, want 4", name, s.AppInstances)
		}
		if s.StageInstances <= s.AppInstances {
			t.Fatalf("%s: augmentation did not increase instances (%d vs %d)", name, s.StageInstances, s.AppInstances)
		}
		if s.MeanStageTokens <= 0 {
			t.Fatalf("%s: no stage tokens", name)
		}
	}
	// PageRank (iterative) must expand much more than Terasort.
	if stats["PageRank"].StageInstances <= stats["Terasort"].StageInstances {
		t.Fatal("iterative app should produce more stage instances")
	}
}

func TestDeterministicInstrumentation(t *testing.T) {
	app := workload.ByName("SVM").Spec
	d := app.MakeData(120)
	a := Run(app, d, sparksim.ClusterC, sparksim.DefaultConfig())
	b := Run(app, d, sparksim.ClusterC, sparksim.DefaultConfig())
	if len(a.Stages) != len(b.Stages) {
		t.Fatal("instance counts differ across identical runs")
	}
	for i := range a.Stages {
		if a.Stages[i].Seconds != b.Stages[i].Seconds {
			t.Fatal("stage labels differ across identical runs")
		}
	}
}
