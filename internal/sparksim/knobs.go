// Package sparksim is the testbed substrate of this reproduction: a
// deterministic simulator of a Spark cluster executing staged analytical
// applications under a configuration of the 16 performance-critical knobs
// from Table IV of the paper.
//
// The simulator replaces the paper's three physical clusters. Its
// analytical cost model encodes the mechanisms that make Spark knob tuning
// hard and that the paper's experiments rely on: executor packing
// (cores×memory vs node capacity), task waves and scheduling overhead,
// shuffle write/fetch with optional compression, unified-memory spills and
// out-of-memory failures, storage-fraction cache hit ratios for iterative
// jobs, driver result-size limits, and GC pressure. Response surfaces are
// therefore non-convex with interactions and cliffs, like Figure 1 of the
// paper, while remaining fully deterministic given a seed.
package sparksim

import (
	"fmt"
	"math"
	"math/rand"
)

// KnobType describes the value domain of a configuration knob.
type KnobType int

// Knob value domains.
const (
	KnobInt KnobType = iota
	KnobFloat
	KnobBool
)

// Knob describes one configuration parameter (one row of Table IV).
type Knob struct {
	Name    string
	Brief   string
	Type    KnobType
	Min     float64
	Max     float64
	Default float64
	// Unit is a human-readable unit suffix (MB, GB, KB, "").
	Unit string
}

// Indices of the 16 knobs within a Config, mirroring Table IV.
const (
	KnobDefaultParallelism = iota
	KnobDriverCores
	KnobDriverMaxResultSize
	KnobDriverMemory
	KnobExecutorCores
	KnobExecutorMemory
	KnobExecutorMemoryOverhead
	KnobExecutorInstances
	KnobFilesMaxPartitionBytes
	KnobMemoryFraction
	KnobMemoryStorageFraction
	KnobReducerMaxSizeInFlight
	KnobShuffleCompress
	KnobShuffleFileBuffer
	KnobShuffleSpillCompress
	KnobRDDCompress

	// NumKnobs is the dimensionality of the configuration space (D in the
	// paper's notation for knob vectors).
	NumKnobs = 16
)

// Knobs is the knob catalog, indexed by the Knob* constants.
var Knobs = [NumKnobs]Knob{
	{Name: "spark.default.parallelism", Brief: "Number of RDD partitions", Type: KnobInt, Min: 8, Max: 512, Default: 24},
	{Name: "spark.driver.cores", Brief: "Number of cores for the driver process", Type: KnobInt, Min: 1, Max: 8, Default: 1},
	{Name: "spark.driver.maxResultSize", Brief: "Size limit of serialized results per action", Type: KnobInt, Min: 256, Max: 4096, Default: 1024, Unit: "MB"},
	{Name: "spark.driver.memory", Brief: "Memory size for the driver process", Type: KnobInt, Min: 1, Max: 16, Default: 2, Unit: "GB"},
	{Name: "spark.executor.cores", Brief: "Number of cores per executor", Type: KnobInt, Min: 1, Max: 16, Default: 2},
	{Name: "spark.executor.memory", Brief: "Memory size per executor process", Type: KnobInt, Min: 1, Max: 32, Default: 2, Unit: "GB"},
	{Name: "spark.executor.memoryOverhead", Brief: "Off-heap memory size per executor", Type: KnobInt, Min: 384, Max: 4096, Default: 512, Unit: "MB"},
	{Name: "spark.executor.instances", Brief: "Initial number of executors", Type: KnobInt, Min: 1, Max: 64, Default: 2},
	{Name: "spark.files.maxPartitionBytes", Brief: "Max size per partition during file reading", Type: KnobInt, Min: 16, Max: 512, Default: 128, Unit: "MB"},
	{Name: "spark.memory.fraction", Brief: "Fraction of heap for execution and storage memory", Type: KnobFloat, Min: 0.3, Max: 0.9, Default: 0.6},
	{Name: "spark.memory.storageFraction", Brief: "Storage memory fraction exempt from eviction", Type: KnobFloat, Min: 0.1, Max: 0.9, Default: 0.5},
	{Name: "spark.reducer.maxSizeInFlight", Brief: "Max map outputs fetched concurrently per reduce task", Type: KnobInt, Min: 8, Max: 128, Default: 48, Unit: "MB"},
	{Name: "spark.shuffle.compress", Brief: "Compress map output files (boolean)", Type: KnobBool, Min: 0, Max: 1, Default: 1},
	{Name: "spark.shuffle.file.buffer", Brief: "In-memory buffer size per shuffle output stream", Type: KnobInt, Min: 16, Max: 128, Default: 32, Unit: "KB"},
	{Name: "spark.shuffle.spill.compress", Brief: "Compress data spilled during shuffles (boolean)", Type: KnobBool, Min: 0, Max: 1, Default: 1},
	{Name: "spark.rdd.compress", Brief: "Compress serialized cached RDD partitions (boolean)", Type: KnobBool, Min: 0, Max: 1, Default: 0},
}

// Config is one point in the 16-dimensional knob space: the array of knob
// values o_i in the paper's notation.
type Config [NumKnobs]float64

// DefaultConfig returns Spark's out-of-the-box configuration, the "Default"
// competitor of Table VI.
func DefaultConfig() Config {
	var c Config
	for i, k := range Knobs {
		c[i] = k.Default
	}
	return c
}

// Clamp snaps every knob value into its legal domain, rounding integer and
// boolean knobs.
func (c Config) Clamp() Config {
	for i := range Knobs {
		k := &Knobs[i] // not a copy of the 80-byte Knob per knob per call
		v := c[i]
		switch k.Type {
		case KnobInt:
			v = math.Round(v)
		case KnobBool:
			if v >= 0.5 {
				v = 1
			} else {
				v = 0
			}
		}
		if v < k.Min {
			v = k.Min
		}
		if v > k.Max {
			v = k.Max
		}
		c[i] = v
	}
	return c
}

// Normalized returns the configuration mapped into [0,1]^16, the feature
// encoding fed to learned models.
func (c Config) Normalized() []float64 {
	out := make([]float64, NumKnobs)
	for i := range Knobs {
		k := &Knobs[i]
		out[i] = (c[i] - k.Min) / (k.Max - k.Min)
	}
	return out
}

// FromNormalized maps a point in [0,1]^16 back into a legal Config.
func FromNormalized(u []float64) Config {
	var c Config
	for i := range Knobs {
		k := &Knobs[i]
		c[i] = k.Min + u[i]*(k.Max-k.Min)
	}
	return c.Clamp()
}

// RandomConfig samples a configuration uniformly from the knob domains.
func RandomConfig(rng *rand.Rand) Config {
	var c Config
	for i, k := range Knobs {
		c[i] = k.Min + rng.Float64()*(k.Max-k.Min)
	}
	return c.Clamp()
}

// Bool reports the boolean knob at index i.
func (c Config) Bool(i int) bool { return c[i] >= 0.5 }

// String renders the configuration as key=value pairs.
func (c Config) String() string {
	s := ""
	for i, k := range Knobs {
		if i > 0 {
			s += " "
		}
		switch k.Type {
		case KnobFloat:
			s += fmt.Sprintf("%s=%.2f", shortName(k.Name), c[i])
		default:
			s += fmt.Sprintf("%s=%d", shortName(k.Name), int(c[i]))
		}
	}
	return s
}

func shortName(full string) string {
	const prefix = "spark."
	if len(full) > len(prefix) && full[:len(prefix)] == prefix {
		return full[len(prefix):]
	}
	return full
}
