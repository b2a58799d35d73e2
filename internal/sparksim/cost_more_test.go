package sparksim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// These tests pin down the qualitative mechanisms of the cost model that
// the paper's experiments depend on — the simulator is the testbed, so its
// response-surface *shapes* are part of the reproduction contract.

func TestParallelismSweetSpot(t *testing.T) {
	// Too few partitions → underutilized slots; too many → scheduling
	// overhead. The optimum must be interior.
	app := testApp()
	app.Stages[1].ShuffleReadFrac = 0.8
	d := app.MakeData(4000)
	cfg := DefaultConfig()
	cfg[KnobExecutorInstances] = 16
	cfg[KnobExecutorCores] = 4
	cfg[KnobExecutorMemory] = 8

	times := map[float64]float64{}
	for _, p := range []float64{8, 64, 512} {
		c := cfg
		c[KnobDefaultParallelism] = p
		times[p] = Simulate(app, d, ClusterB, c).Seconds
	}
	if times[64] >= times[8] {
		t.Fatalf("64 partitions should beat 8 on big data: %v vs %v", times[64], times[8])
	}
	if times[512] <= times[64] {
		t.Fatalf("512 tiny partitions should pay scheduling overhead: %v vs %v", times[512], times[64])
	}
}

func TestFasterCPUHelps(t *testing.T) {
	app := testApp()
	d := app.MakeData(500)
	slow := Environment{Name: "slow", Nodes: 3, Cores: 16, FreqGHz: 2.0, MemGB: 64, MemSpeedMTs: 2400, NetGbps: 10}
	fast := slow
	fast.Name = "fast"
	fast.FreqGHz = 3.6
	cfg := DefaultConfig()
	if Simulate(app, d, fast, cfg).Seconds >= Simulate(app, d, slow, cfg).Seconds {
		t.Fatal("faster CPU should reduce execution time")
	}
}

func TestSlowNetworkHurtsShuffle(t *testing.T) {
	app := testApp()
	app.Stages[1].ShuffleReadFrac = 1.0
	d := app.MakeData(4000)
	fastNet := Environment{Name: "f", Nodes: 8, Cores: 16, FreqGHz: 2.9, MemGB: 64, MemSpeedMTs: 2666, NetGbps: 10}
	slowNet := fastNet
	slowNet.Name = "s"
	slowNet.NetGbps = 1
	cfg := DefaultConfig()
	cfg[KnobExecutorInstances] = 16
	cfg[KnobExecutorMemory] = 8
	if Simulate(app, d, slowNet, cfg).Seconds <= Simulate(app, d, fastNet, cfg).Seconds {
		t.Fatal("slower interconnect should hurt a shuffle-heavy app")
	}
}

func TestSingleNodeHasNoNetworkShuffleCost(t *testing.T) {
	// On cluster A (1 node) shuffle reads stay local: compression should
	// cost CPU without buying network savings, so enabling it should not
	// help much (and never catastrophically hurt).
	app := testApp()
	app.Stages[1].ShuffleReadFrac = 1.0
	d := app.MakeData(1000)
	on := DefaultConfig()
	on[KnobExecutorInstances] = 8
	on[KnobExecutorMemory] = 6
	off := on
	off[KnobShuffleCompress] = 0
	tOn := Simulate(app, d, ClusterA, on).Seconds
	tOff := Simulate(app, d, ClusterA, off).Seconds
	// Compression still reduces disk IO, so allow either order — but the
	// difference must be far smaller than on the 1 Gbps cluster C.
	diffA := math.Abs(tOn-tOff) / tOff
	onC := Simulate(app, d, ClusterC, on).Seconds
	offC := Simulate(app, d, ClusterC, off).Seconds
	diffC := (offC - onC) / offC
	if diffC <= 0 {
		t.Fatalf("compression must win on cluster C: on=%v off=%v", onC, offC)
	}
	if diffA > diffC {
		t.Fatalf("compression effect should be larger on the slow network: A=%v C=%v", diffA, diffC)
	}
}

func TestMaxPartitionBytesControlsInputStage(t *testing.T) {
	app := testApp()
	d := app.MakeData(2048)
	small := DefaultConfig()
	small[KnobFilesMaxPartitionBytes] = 16
	big := DefaultConfig()
	big[KnobFilesMaxPartitionBytes] = 512
	rs := Simulate(app, d, ClusterB, small)
	rb := Simulate(app, d, ClusterB, big)
	if rs.Stages[0].Tasks <= rb.Stages[0].Tasks {
		t.Fatalf("smaller split size must create more input tasks: %d vs %d", rs.Stages[0].Tasks, rb.Stages[0].Tasks)
	}
}

func TestFeasibleMatchesSimulate(t *testing.T) {
	app := testApp()
	d := app.MakeData(50)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := RandomConfig(rng)
		for _, env := range AllClusters {
			feasible := Feasible(cfg, env)
			res := Simulate(app, d, env, cfg)
			allocFailed := res.Failed && !feasible
			// If Feasible says no, Simulate must fail; if Feasible says
			// yes, any failure must be dynamic (OOM/result size), which
			// this tiny app with tiny data cannot trigger... except memory
			// pressure; so only assert one direction.
			if !feasible && !res.Failed {
				return false
			}
			_ = allocFailed
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReducerMaxSizeInFlightRounds(t *testing.T) {
	app := testApp()
	app.Stages[1].ShuffleReadFrac = 1.0
	d := app.MakeData(4000)
	cfg := DefaultConfig()
	cfg[KnobExecutorInstances] = 8
	cfg[KnobExecutorMemory] = 8
	cfg[KnobDefaultParallelism] = 16 // few reducers → large per-task fetch
	smallFlight := cfg
	smallFlight[KnobReducerMaxSizeInFlight] = 8
	bigFlight := cfg
	bigFlight[KnobReducerMaxSizeInFlight] = 128
	if Simulate(app, d, ClusterB, smallFlight).Seconds <= Simulate(app, d, ClusterB, bigFlight).Seconds {
		t.Fatal("tiny maxSizeInFlight should add fetch rounds")
	}
}

func TestDriverCoresSpeedSchedulingOfManyTasks(t *testing.T) {
	app := testApp()
	d := app.MakeData(2000)
	cfg := DefaultConfig()
	cfg[KnobDefaultParallelism] = 512
	cfg[KnobExecutorInstances] = 16
	cfg[KnobExecutorMemory] = 8
	one := cfg
	one[KnobDriverCores] = 1
	eight := cfg
	eight[KnobDriverCores] = 8
	if Simulate(app, d, ClusterB, eight).Seconds >= Simulate(app, d, ClusterB, one).Seconds {
		t.Fatal("more driver cores should reduce scheduling time with many tasks")
	}
}

func TestGraphAppSkewInflatesShuffleStages(t *testing.T) {
	skewed := testApp()
	skewed.SkewFactor = 2.0
	skewed.Stages[1].ShuffleReadFrac = 0.8
	uniform := testApp()
	uniform.SkewFactor = 1.0
	uniform.Stages[1].ShuffleReadFrac = 0.8
	// Give the apps different names so jitter differs deterministically but
	// the comparison is dominated by skew.
	skewed.Name = "SkewedApp"
	uniform.Name = "SkewedApp" // same name → identical jitter
	d := skewed.MakeData(2000)
	cfg := DefaultConfig()
	cfg[KnobDefaultParallelism] = 16 // few partitions → skew bites
	cfg[KnobExecutorInstances] = 8
	cfg[KnobExecutorMemory] = 8
	ts := Simulate(skewed, d, ClusterB, cfg).Seconds
	tu := Simulate(uniform, d, ClusterB, cfg).Seconds
	if ts <= tu {
		t.Fatalf("key skew should inflate shuffle stages: %v vs %v", ts, tu)
	}
}

func TestFailCapIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		app := iterApp()
		d := app.MakeData(float64(1000 + rng.Intn(30000)))
		res := Simulate(app, d, ClusterC, RandomConfig(rng))
		return res.Seconds <= FailCap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Feasible and Simulate read one placement: a configuration is feasible
// exactly when it fits, and a run places Placement's executors.
func TestPlacementIsFeasibilityAndExecutors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	app := testApp()
	d := app.MakeData(500)
	for i := 0; i < 300; i++ {
		cfg := RandomConfig(rng)
		for _, env := range []Environment{ClusterA, ClusterB, ClusterC} {
			executors, fits := Placement(cfg.Clamp(), env)
			if Feasible(cfg, env) != fits {
				t.Fatalf("Feasible = %v, Placement fits = %v", !fits, fits)
			}
			res := Simulate(app, d, env, cfg)
			if !fits && !res.Failed {
				t.Fatalf("a configuration that does not fit ran: %+v", res)
			}
			if fits && res.Executors != int(executors) {
				t.Fatalf("Simulate placed %d executors, Placement %v", res.Executors, executors)
			}
		}
	}
	var nan Config
	for i := range nan {
		nan[i] = math.NaN()
	}
	if executors, fits := Placement(nan, ClusterB); fits || executors != 0 {
		t.Fatalf("a NaN configuration fits: %v executors", executors)
	}
}
