package sparksim

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// FailCap is the execution time recorded for failed or over-long runs,
// following §V-B of the paper ("if the actual execution time was longer
// than two hours, or if the application failed, we record 7200 s").
const FailCap = 7200.0

// StageResult captures the simulated execution of one stage instance.
type StageResult struct {
	// StageIndex refers into AppSpec.Stages (iterated stages appear once
	// per iteration in Result.Stages).
	StageIndex int
	Seconds    float64
	InputMB    float64
	ShuffleMB  float64
	// SpillRatio is task memory demand over available execution memory;
	// values above 1 indicate spilling.
	SpillRatio float64
	Waves      int
	Tasks      int
}

// Result is the outcome of one simulated application run.
type Result struct {
	Seconds    float64
	Failed     bool
	FailReason string
	Stages     []StageResult
	// CacheHitRatio is the fraction of persisted partitions served from
	// storage memory across iterations.
	CacheHitRatio float64
	Executors     int
	Slots         int

	// Run-level recovery totals (sums of the per-stage counters); all zero
	// when the environment injects no faults.
	TasksRetried        int
	StagesReattempted   int
	SpeculativeLaunched int
	ExecutorsLost       int
}

// Metrics summarizes the run as the "inner status of Spark" vector the
// DDPG baselines observe (QTune-style state): resource allocation, memory
// pressure, shuffle volume and parallelism utilization.
//
// The vector is frozen at MetricsLen entries: the fault-recovery counters
// are deliberately NOT part of it, because its width determines the DDPG
// networks' shapes and changing it would silently alter every RL baseline's
// weight initialization (breaking reproducibility of the seed experiments).
// Consumers that want the recovery picture use FaultCounters().
func (r *Result) Metrics() []float64 {
	var spill, shuffle, waves float64
	for _, s := range r.Stages {
		spill += s.SpillRatio
		shuffle += s.ShuffleMB
		waves += float64(s.Waves)
	}
	n := float64(len(r.Stages))
	if n == 0 {
		n = 1
	}
	failed := 0.0
	if r.Failed {
		failed = 1
	}
	return []float64{
		float64(r.Executors) / 64,
		float64(r.Slots) / 256,
		spill / n,
		math.Log1p(shuffle) / 15,
		waves / n / 16,
		r.CacheHitRatio,
		failed,
	}
}

// MetricsLen is the width of the Metrics vector.
const MetricsLen = 7

// Feasible reports whether the configuration can allocate at least one
// executor on the environment — the check Spark's resource manager performs
// at submission time, before any task runs. Tuners may use it to discard
// statically impossible candidates; dynamic failures (OOM, result-size
// overflow) are only discovered by running.
func Feasible(cfg Config, env Environment) bool {
	_, fits := Placement(cfg.Clamp(), env)
	return fits
}

// Placement is the resource manager's placement of a clamped
// configuration on env: fits reports whether one executor fits on a node
// — its cores within the node's, its heap plus overhead within the node's
// memory less 1 GB for the OS — and executors is how many run, as many
// per node as fit, across all nodes, at most the requested instances (0
// when none fits). Feasibility, the simulator and the dense features all
// read it, so they agree on every configuration.
func Placement(cfg Config, env Environment) (executors float64, fits bool) {
	perNodeByCores := math.Floor(float64(env.Cores) / cfg[KnobExecutorCores])
	perNodeByMem := math.Floor((env.MemGB - 1) / (cfg[KnobExecutorMemory] + cfg[KnobExecutorMemoryOverhead]/1024))
	perNode := math.Min(perNodeByCores, perNodeByMem)
	if !(perNode >= 1) {
		return 0, false
	}
	return math.Min(cfg[KnobExecutorInstances], perNode*float64(env.Nodes)), true
}

// Simulate executes the application on the given data, environment and
// configuration, returning per-stage and total execution times. It is
// deterministic: the same inputs always produce the same result.
func Simulate(app *AppSpec, data DataSpec, env Environment, cfg Config) Result {
	cfg = cfg.Clamp()

	execCores := cfg[KnobExecutorCores]
	execMemGB := cfg[KnobExecutorMemory]
	executors, fits := Placement(cfg, env)
	if !fits {
		return failResult(app, "executor does not fit on any node (cores or memory)")
	}
	slots := executors * execCores

	// Core speed relative to a 3.0 GHz baseline, with a small memory-speed
	// term (Table II lists memory speed as an environment feature).
	speed := env.FreqGHz / 3.0 * (0.92 + 0.08*env.MemSpeedMTs/2666)

	// Unified memory model (spark.memory.fraction / storageFraction).
	heapMB := execMemGB * 1024
	unifiedMB := heapMB * cfg[KnobMemoryFraction]
	storageMB := unifiedMB * cfg[KnobMemoryStorageFraction]

	appCaches := false
	for i := range app.Stages {
		if app.Stages[i].profile().caches {
			appCaches = true
			break
		}
	}
	executionMB := unifiedMB
	if appCaches {
		// Storage-protected region is unavailable to execution.
		executionMB = unifiedMB - storageMB
	}
	execPerTaskMB := executionMB / execCores
	if execPerTaskMB < 8 {
		execPerTaskMB = 8
	}

	// Cache capacity vs need determines the hit ratio iterative stages see.
	cacheHit := 0.0
	if appCaches {
		cacheNeedMB := data.SizeMB * 1.4
		if cfg.Bool(KnobRDDCompress) {
			cacheNeedMB *= 0.55
		}
		cacheAvailMB := storageMB * executors
		if cacheNeedMB > 0 {
			cacheHit = math.Min(1, cacheAvailMB/cacheNeedMB)
		}
	}

	seq := app.ExpandedStages(data)
	res := Result{
		Executors:     int(executors),
		Slots:         int(slots),
		CacheHitRatio: cacheHit,
		Stages:        make([]StageResult, 0, len(seq)),
	}

	skew := app.SkewFactor
	if skew < 1 {
		skew = 1
	}

	for seqIdx, si := range seq {
		st := &app.Stages[si]
		prof := st.profile()
		inMB := data.SizeMB * st.InputFrac
		if inMB < 1 {
			inMB = 1
		}

		// Partitioning: input stages follow maxPartitionBytes; shuffle
		// stages follow default.parallelism (or an explicit override).
		var parts float64
		if st.ShuffleReadFrac == 0 && seqIdx == 0 {
			parts = math.Ceil(inMB / cfg[KnobFilesMaxPartitionBytes])
			if parts < 2 {
				parts = 2
			}
		} else {
			parts = cfg[KnobDefaultParallelism]
			if data.Partitions > 0 {
				parts = float64(data.Partitions)
			}
		}

		perPartMB := inMB / parts

		// --- CPU ---
		const baseCPUPerMB = 0.030 // seconds of single-core work per MB per unit op-cost
		cpuSec := perPartMB * prof.cpu * baseCPUPerMB / speed

		// Cache misses force recomputation and disk re-reads.
		if st.ReadsCache && appCaches {
			miss := 1 - cacheHit
			cpuSec *= 1 + 1.6*miss
			cpuSec += miss * perPartMB * 0.004 // re-read from disk
			if cfg.Bool(KnobRDDCompress) {
				// Decompression of cached blocks costs CPU.
				cpuSec += cacheHit * perPartMB * 0.0012 / speed
			}
		}

		// GC pressure: squeezing the user heap (high memory.fraction)
		// hurts allocation-heavy (high memExpand) stages.
		gc := 1 + 0.6*math.Max(0, cfg[KnobMemoryFraction]-0.6)*prof.memExpand
		cpuSec *= gc

		// --- Memory / spill ---
		taskNeedMB := perPartMB * prof.memExpand
		spillRatio := 0.0
		if taskNeedMB > 0 {
			spillRatio = taskNeedMB / execPerTaskMB
		}
		if spillRatio > 6 {
			return failResult(app, fmt.Sprintf("stage %q OOM: task needs %.0f MB, execution memory %.0f MB", st.Name, taskNeedMB, execPerTaskMB))
		}
		if spillRatio > 1 {
			spillMB := taskNeedMB - execPerTaskMB
			ioPerMB := 0.004 // ~250 MB/s local disk
			if cfg.Bool(KnobShuffleSpillCompress) {
				cpuSec += spillMB * 0.0010 / speed
				spillMB *= 0.5
			}
			cpuSec += 2 * spillMB * ioPerMB // write + read back
		}

		// --- Shuffle write ---
		swMB := inMB * prof.shuffleWrite
		if swMB > 0 {
			perTaskSW := swMB / parts
			ioPerMB := 0.004
			bytes := perTaskSW
			if cfg.Bool(KnobShuffleCompress) {
				cpuSec += perTaskSW * 0.0011 / speed
				bytes *= 0.45
			}
			// Small shuffle buffers flush more often.
			flushFactor := 1 + 0.30*(32/cfg[KnobShuffleFileBuffer])
			cpuSec += bytes * ioPerMB * flushFactor
		}

		// --- Shuffle read ---
		srMB := inMB * st.ShuffleReadFrac
		if srMB > 0 {
			if cfg.Bool(KnobShuffleCompress) {
				// Decompression cost, but fewer bytes on the wire.
				cpuSec += (srMB / parts) * 0.0009 / speed
				srMB *= 0.45
			}
			perTaskSR := srMB / parts
			crossNode := float64(env.Nodes-1) / float64(env.Nodes)
			if crossNode > 0 {
				nodeMBps := env.NetGbps * 125
				concurrentPerNode := math.Max(1, slots/float64(env.Nodes))
				perTaskBW := nodeMBps / concurrentPerNode
				cpuSec += perTaskSR * crossNode / perTaskBW
			}
			// Fetch rounds limited by reducer.maxSizeInFlight.
			rounds := math.Ceil(perTaskSR / cfg[KnobReducerMaxSizeInFlight])
			cpuSec += rounds * 0.015
		}

		// --- Stage assembly: waves, skew, scheduling ---
		waves := math.Ceil(parts / slots)
		// Straggler inflation: shuffle stages with few partitions suffer
		// more from key skew; very many partitions smooth it out.
		skewFactor := 1.0
		if prof.shuffleWrite > 0 || st.ShuffleReadFrac > 0 {
			skewFactor = 1 + (skew-1)*math.Min(1, 24/parts)
		}
		launchPerTask := 0.004
		schedSec := parts * launchPerTask / math.Sqrt(cfg[KnobDriverCores])
		stageSec := waves*cpuSec*skewFactor + schedSec + 0.05 // stage submit latency

		// --- Driver collection ---
		if prof.collects && st.OutputFrac > 0 {
			resultMB := inMB * st.OutputFrac
			if resultMB > cfg[KnobDriverMaxResultSize] {
				return failResult(app, fmt.Sprintf("stage %q result %.0f MB exceeds spark.driver.maxResultSize", st.Name, resultMB))
			}
			if resultMB > cfg[KnobDriverMemory]*1024*0.6 {
				return failResult(app, fmt.Sprintf("stage %q driver OOM collecting %.0f MB", st.Name, resultMB))
			}
			stageSec += resultMB * 0.003 / math.Pow(cfg[KnobDriverCores], 0.7)
		}

		// Deterministic per-stage jitter (±3%) stands in for run-to-run
		// variance without breaking reproducibility.
		stageSec *= 1 + 0.03*jitter(app.Name, env.Name, si, seqIdx, cfg, data.SizeMB)

		sr := StageResult{
			StageIndex: si,
			Seconds:    stageSec,
			InputMB:    inMB,
			ShuffleMB:  swMB,
			SpillRatio: spillRatio,
			Waves:      int(waves),
			Tasks:      int(parts),
		}

		// Transient-fault injection with Spark's recovery semantics; inert
		// (and skipped entirely) unless the environment carries an active
		// FaultProfile, so fault-free runs are bit-for-bit unchanged.
		if env.Faults.Active() {
			fi := env.Faults.injectStage(stageExposure{
				App:         app,
				Env:         env,
				Cfg:         cfg,
				SizeMB:      data.SizeMB,
				StageIndex:  si,
				SeqIdx:      seqIdx,
				BaseSec:     stageSec,
				TaskSec:     cpuSec * skewFactor,
				Parts:       parts,
				Slots:       slots,
				Executors:   executors,
				ShuffleRead: srMB > 0,
				LaunchSec:   launchPerTask,
			})
			res.TasksRetried += fi.TasksRetried
			res.StagesReattempted += fi.Reattempts
			res.SpeculativeLaunched += fi.Speculative
			res.ExecutorsLost += fi.ExecutorsLost
			if fi.Fatal {
				// Same shape as every other failed run (failResult), with
				// the recovery work done so far preserved in the counters.
				fr := failResult(app, fi.FatalReason)
				fr.TasksRetried = res.TasksRetried
				fr.StagesReattempted = res.StagesReattempted
				fr.SpeculativeLaunched = res.SpeculativeLaunched
				fr.ExecutorsLost = res.ExecutorsLost
				return fr
			}
			stageSec += fi.ExtraSec
			sr.Seconds = stageSec
		}

		res.Stages = append(res.Stages, sr)
		res.Seconds += stageSec
		if res.Seconds > FailCap {
			res.Seconds = FailCap
			res.Failed = true
			res.FailReason = "exceeded two-hour cap"
			return res
		}
	}
	return res
}

func failResult(app *AppSpec, reason string) Result {
	return Result{Seconds: FailCap, Failed: true, FailReason: reason}
}

// jitter returns a deterministic pseudo-random value in [−1,1] keyed on the
// run identity. Configurations are quantized so that nearby float knob
// values share jitter, keeping response surfaces smooth.
func jitter(appName, envName string, stage, seqIdx int, cfg Config, sizeMB float64) float64 {
	var buf [256]byte
	h := fnv.New64a()
	h.Write(jitterKey(buf[:0], appName, envName, stage, seqIdx, cfg, sizeMB))
	u := h.Sum64()
	return float64(u%20001)/10000 - 1
}

// jitterKey appends the bytes jitter hashes to b: the run identity as
// fmt's "%s|%s|%d|%d|%.0f", then "|%.2f" per knob. strconv writes what
// fmt writes for these verbs, NaN and ±Inf included, without fmt's
// per-call cost.
func jitterKey(b []byte, appName, envName string, stage, seqIdx int, cfg Config, sizeMB float64) []byte {
	b = append(append(b, appName...), '|')
	b = append(append(b, envName...), '|')
	b = append(strconv.AppendInt(b, int64(stage), 10), '|')
	b = append(strconv.AppendInt(b, int64(seqIdx), 10), '|')
	b = strconv.AppendFloat(b, sizeMB, 'f', 0, 64)
	for _, v := range cfg {
		b = strconv.AppendFloat(append(b, '|'), v, 'f', 2, 64)
	}
	return b
}
