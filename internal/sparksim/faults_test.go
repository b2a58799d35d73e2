package sparksim

import (
	"reflect"
	"testing"
)

func faultyEnv(intensity float64, seed int64) Environment {
	return ClusterB.WithFaults(ScaledFaults(intensity, seed))
}

func TestScaledFaultsZeroIntensityIsNil(t *testing.T) {
	if ScaledFaults(0, 1) != nil || ScaledFaults(-1, 1) != nil {
		t.Fatal("non-positive intensity must return no profile")
	}
	if !ScaledFaults(0.5, 1).Active() {
		t.Fatal("positive intensity must be active")
	}
}

func TestFaultProfileActive(t *testing.T) {
	var p *FaultProfile
	if p.Active() {
		t.Fatal("nil profile must be inactive")
	}
	if (&FaultProfile{Seed: 42, MaxTaskFailures: 4}).Active() {
		t.Fatal("all-zero rates must be inactive")
	}
	if !(&FaultProfile{StragglerProb: 0.1}).Active() {
		t.Fatal("any positive rate must be active")
	}
}

// Same seed → bit-for-bit identical Result, including the recovery counters.
func TestFaultInjectionDeterministic(t *testing.T) {
	for _, app := range []*AppSpec{testApp(), iterApp()} {
		env := faultyEnv(1.0, 7)
		data := DataSpec{SizeMB: 4096, Iterations: app.DefaultIterations}
		cfg := DefaultConfig()
		a := Simulate(app, data, env, cfg)
		b := Simulate(app, data, env, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different results:\n%+v\n%+v", app.Name, a, b)
		}
	}
}

func TestFaultSeedDecorrelates(t *testing.T) {
	app := iterApp()
	data := DataSpec{SizeMB: 8192, Iterations: app.DefaultIterations}
	cfg := DefaultConfig()
	diff := false
	for seed := int64(0); seed < 8 && !diff; seed++ {
		a := Simulate(app, data, faultyEnv(1.0, seed), cfg)
		b := Simulate(app, data, faultyEnv(1.0, seed+100), cfg)
		diff = !reflect.DeepEqual(a, b)
	}
	if !diff {
		t.Fatal("different seeds never changed the outcome across 8 seed pairs")
	}
}

// An attached profile whose rates are all zero must leave every result
// bit-for-bit identical to a run with no profile at all.
func TestZeroProfileBitForBitIdentical(t *testing.T) {
	zero := &FaultProfile{Seed: 99, MaxTaskFailures: 4, MaxStageAttempts: 4}
	for _, app := range []*AppSpec{testApp(), iterApp()} {
		for _, base := range AllClusters {
			data := DataSpec{SizeMB: 2048, Iterations: app.DefaultIterations}
			for _, cfg := range []Config{DefaultConfig()} {
				plain := Simulate(app, data, base, cfg)
				faulted := Simulate(app, data, base.WithFaults(zero), cfg)
				if !reflect.DeepEqual(plain, faulted) {
					t.Fatalf("%s on %s: zero-rate profile changed the result", app.Name, base.Name)
				}
			}
		}
	}
}

func TestFaultsIncreaseTimeMonotonically(t *testing.T) {
	app := iterApp()
	data := DataSpec{SizeMB: 4096, Iterations: app.DefaultIterations}
	cfg := DefaultConfig()
	base := Simulate(app, data, ClusterB, cfg)
	hot := Simulate(app, data, faultyEnv(1.0, 3), cfg)
	if hot.Failed {
		t.Skip("run aborted under faults; time comparison not meaningful")
	}
	if hot.Seconds < base.Seconds {
		t.Fatalf("full fault intensity should not speed the run up: %v < %v", hot.Seconds, base.Seconds)
	}
}

func TestFatalFaultProducesFailedRunWithCounters(t *testing.T) {
	app := iterApp()
	data := DataSpec{SizeMB: 8192, Iterations: app.DefaultIterations}
	// Brutal profile: every shuffle attempt fails, so the first shuffle-read
	// stage must exhaust its attempts and abort the run.
	p := &FaultProfile{FetchFailureRate: 1.0, MaxStageAttempts: 4, Seed: 1}
	res := Simulate(app, data, ClusterB.WithFaults(p), DefaultConfig())
	if !res.Failed {
		t.Fatal("certain fetch failure must abort the run")
	}
	if res.Seconds != FailCap {
		t.Fatalf("aborted run should report the failure cap, got %v", res.Seconds)
	}
	if res.FailReason == "" {
		t.Fatal("aborted run must explain itself")
	}
}

func TestReseededShiftsOnlySeed(t *testing.T) {
	p := ScaledFaults(0.5, 10)
	q := p.Reseeded(3)
	if q.Seed != 13 {
		t.Fatalf("seed = %d, want 13", q.Seed)
	}
	q.Seed = p.Seed
	if !reflect.DeepEqual(p, q) {
		t.Fatal("Reseeded changed more than the seed")
	}
	var nilP *FaultProfile
	if nilP.Reseeded(5) != nil {
		t.Fatal("nil must stay nil")
	}
}
