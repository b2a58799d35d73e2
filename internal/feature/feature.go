// Package feature turns stage-level instances into model inputs: code
// token sequences over a learned vocabulary (paper §III-B Step 2), DAG
// scheduler node/adjacency matrices with an out-of-vocabulary token
// (Step 3), and the dense data / environment / configuration features of
// Tables I, II and IV.
package feature

import (
	"math"
	"sort"

	"lite/internal/instrument"
	"lite/internal/sparksim"
	"lite/internal/tensor"
)

// OOVID is the token id reserved for out-of-vocabulary code tokens; the
// paper adds an oov token "to increase generalizability ... to handle
// unseen atomic operations in the test application".
const OOVID = 0

// Tokenize splits source code into tokens: identifiers and literals, with
// punctuation discarded. Case is preserved because Spark API names
// (sortByKey, treeAggregate) are the discriminative vocabulary. A token is
// a maximal run of ASCII letters, digits and underscores; every other
// byte separates, which splits at every non-ASCII rune and every invalid
// UTF-8 byte alike, since both consist of bytes ≥ 0x80 only. The tokens
// are substrings of code.
func Tokenize(code string) []string {
	var toks []string
	start := -1
	for i := 0; i < len(code); i++ {
		if c := code[i]; c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			toks = append(toks, code[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, code[start:])
	}
	return toks
}

// Vocab maps code tokens to embedding ids. Id 0 is the oov token.
type Vocab struct {
	ids map[string]int
	// UseOOV controls whether unknown tokens map to OOVID or are dropped;
	// the Cold-UNK ablation of Table XI disables it.
	UseOOV bool
}

// BuildVocab constructs a vocabulary from a corpus of code strings,
// keeping tokens that occur at least minCount times.
func BuildVocab(corpus []string, minCount int) *Vocab {
	counts := map[string]int{}
	for _, code := range corpus {
		for _, t := range Tokenize(code) {
			counts[t]++
		}
	}
	kept := make([]string, 0, len(counts))
	for t, c := range counts {
		if c >= minCount {
			kept = append(kept, t)
		}
	}
	sort.Strings(kept)
	v := &Vocab{ids: make(map[string]int, len(kept)), UseOOV: true}
	for i, t := range kept {
		v.ids[t] = i + 1 // 0 reserved for oov
	}
	return v
}

// Size returns the number of embedding rows (vocabulary + oov).
func (v *Vocab) Size() int { return len(v.ids) + 1 }

// Encode maps code to a fixed-length id sequence of length maxLen, padding
// with −1 (zero embedding columns, matching the paper's zero padding).
func (v *Vocab) Encode(code string, maxLen int) []int {
	out := make([]int, 0, maxLen)
	for _, t := range Tokenize(code) {
		if len(out) == maxLen {
			break
		}
		id, ok := v.ids[t]
		if !ok {
			if !v.UseOOV {
				continue // Cold-UNK ablation: unseen tokens vanish
			}
			id = OOVID
		}
		out = append(out, id)
	}
	for len(out) < maxLen {
		out = append(out, -1)
	}
	return out
}

// ID returns the id of a token (OOVID when unknown).
func (v *Vocab) ID(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	return OOVID
}

// Export returns a copy of the token→id table (for model persistence).
func (v *Vocab) Export() map[string]int {
	out := make(map[string]int, len(v.ids))
	for t, id := range v.ids {
		out[t] = id
	}
	return out
}

// NewVocabFromMap reconstructs a vocabulary from an exported table.
func NewVocabFromMap(ids map[string]int, useOOV bool) *Vocab {
	cp := make(map[string]int, len(ids))
	for t, id := range ids {
		cp[t] = id
	}
	return &Vocab{ids: cp, UseOOV: useOOV}
}

// OpVocab maps DAG node labels (atomic operations) to one-hot columns.
// Column S (the last) is the oov operation, mirroring §III-B Step 3.
type OpVocab struct {
	ids map[string]int
	// UseOOV disables the oov column when false (Cold-UNK ablation:
	// unseen ops map onto column 0 arbitrarily, degrading cold-start).
	UseOOV bool
}

// BuildOpVocab constructs the node-label vocabulary from training DAGs.
func BuildOpVocab(instances []instrument.StageInstance) *OpVocab {
	set := map[string]bool{}
	for i := range instances {
		for _, op := range instances[i].Ops {
			set[op] = true
		}
	}
	names := make([]string, 0, len(set))
	for op := range set {
		names = append(names, op)
	}
	sort.Strings(names)
	v := &OpVocab{ids: make(map[string]int, len(names)), UseOOV: true}
	for i, op := range names {
		v.ids[op] = i
	}
	return v
}

// Width returns S+1: one column per known operation plus the oov column.
func (v *OpVocab) Width() int { return len(v.ids) + 1 }

// Export returns a copy of the op→column table (for model persistence).
func (v *OpVocab) Export() map[string]int {
	out := make(map[string]int, len(v.ids))
	for t, id := range v.ids {
		out[t] = id
	}
	return out
}

// NewOpVocabFromMap reconstructs an op vocabulary from an exported table.
func NewOpVocabFromMap(ids map[string]int, useOOV bool) *OpVocab {
	cp := make(map[string]int, len(ids))
	for t, id := range ids {
		cp[t] = id
	}
	return &OpVocab{ids: cp, UseOOV: useOOV}
}

// NodeFeatures builds the |V|×(S+1) one-hot node embedding matrix V_i.
func (v *OpVocab) NodeFeatures(ops []string) *tensor.Tensor {
	m := tensor.New(len(ops), v.Width())
	oov := len(v.ids)
	for i, op := range ops {
		id, ok := v.ids[op]
		if !ok {
			if v.UseOOV {
				id = oov
			} else {
				id = 0
			}
		}
		m.Set(i, id, 1)
	}
	return m
}

// DenseFeatures assembles the non-neural inputs of a stage instance: the
// normalized knob vector o_i (16), data features d_i (4), environment
// features e_i (6), and derived resource features (8) — quantities any
// practitioner computes from the submitted configuration and the cluster
// spec before running anything (allocatable executors, task slots, memory
// per task, partitions per slot, ...). They encode the o_i×e_i×d_i
// interactions that drive Spark performance and are equally available to
// every learned model in the evaluation.
func DenseFeatures(inst *instrument.StageInstance) []float64 {
	out := make([]float64, 0, DenseWidth)
	out = append(out, inst.Config.Normalized()...)
	out = append(out, inst.Data.Features()...)
	out = append(out, inst.Env.Features()...)
	out = append(out, DerivedResourceFeatures(inst.Config, inst.Data, inst.Env)...)
	return out
}

// DerivedResourceFeatures computes the 8 interaction features described at
// DenseFeatures. All inputs are knob values, the data size and the cluster
// spec — nothing observed from execution.
func DerivedResourceFeatures(cfg sparksim.Config, data sparksim.DataSpec, env sparksim.Environment) []float64 {
	return DerivedResourceFeaturesInto(make([]float64, DerivedWidth), cfg, data, env)
}

// DerivedWidth is the width of DerivedResourceFeatures' output.
const DerivedWidth = 8

// DerivedResourceFeaturesInto writes DerivedResourceFeatures' values into
// dst[:DerivedWidth] and returns that slice, so the scoring kernel fills a
// tower input row in place without allocating.
func DerivedResourceFeaturesInto(dst []float64, cfg sparksim.Config, data sparksim.DataSpec, env sparksim.Environment) []float64 {
	cfg = cfg.Clamp()
	cores := cfg[sparksim.KnobExecutorCores]
	memGB := cfg[sparksim.KnobExecutorMemory]
	executors, fits := sparksim.Placement(cfg, env)
	slots := executors * cores
	heapMB := memGB * 1024
	unified := heapMB * cfg[sparksim.KnobMemoryFraction]
	storage := unified * cfg[sparksim.KnobMemoryStorageFraction]
	execPerTask := (unified - storage) / cores
	parallelism := cfg[sparksim.KnobDefaultParallelism]
	mbPerPartition := data.SizeMB / parallelism
	feasible := 0.0
	if fits {
		feasible = 1
	}
	dst = dst[:DerivedWidth]
	dst[0] = feasible
	dst[1] = slots / 256
	dst[2] = logScale(executors, 64)
	dst[3] = logScale(execPerTask, 32*1024)
	dst[4] = logScale(storage*executors/(data.SizeMB+1), 64)
	dst[5] = logScale(parallelism/math.Max(slots, 1), 64)
	dst[6] = logScale(mbPerPartition, 4096)
	dst[7] = logScale(data.SizeMB/math.Max(slots, 1), 1<<20)
	return dst
}

// DenseWidth is the width of DenseFeatures' output.
const DenseWidth = sparksim.NumKnobs + 4 + 6 + DerivedWidth

// StageStats returns the stage-level "Spark monitor UI" statistics used by
// the S/SC baselines of Table VII (input MB, shuffle MB, task count),
// log-scaled. NECS must not consume these (paper §V-C: "they are only
// accessible when the application has been actually executed").
func StageStats(inst *instrument.StageInstance) []float64 {
	return []float64{
		logScale(inst.InputMB, 1<<20),
		logScale(inst.ShuffleMB, 1<<20),
		logScale(float64(inst.Tasks), 4096),
	}
}

// StageStatsWidth is the width of StageStats' output.
const StageStatsWidth = 3

func logScale(v, max float64) float64 {
	if v <= 0 {
		return 0
	}
	return log2(1+v) / log2(1+max)
}

func log2(x float64) float64 {
	// Thin wrapper to keep math import out of the public surface.
	return math.Log2(x)
}

// BagOfWords builds the L2-normalized bag-of-words vector over the vocab
// for the WC/SC baselines ("BOW representation of program codes").
func (v *Vocab) BagOfWords(code string) []float64 {
	out := make([]float64, v.Size())
	for _, t := range Tokenize(code) {
		out[v.ID(t)]++
	}
	var norm float64
	for _, x := range out {
		norm += x * x
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range out {
			out[i] /= norm
		}
	}
	return out
}
