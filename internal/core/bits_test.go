package core

// Cross-commit drift guard: the trained weights themselves, not a score
// derived from them, are pinned as a checksum. The goldens in batch_test.go
// and train_ref_test.go compare two paths of the *same* build, so a change
// that moves both paths together passes them; these constants were computed
// on the commit named below and only change when a change to the arithmetic
// of training is deliberate (and says so).

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lite/internal/sparksim"
	"lite/internal/workload"
)

// bitsFit was recorded with minibatched training (DESIGN.md §12.8)
// applied to 33ed2e118822a85b745ef648aefe0a65599f3d07, go1.24,
// linux/amd64. bitsAMU was re-recorded, same toolchain, with Adaptive
// Model Update's encoders frozen applied to
// ed20b5a7485c02ab55d491716a2de2ba35a457f7: the update trains the tower
// and the discriminator over constant encoder outputs (Θ = tower,
// DESIGN.md §12.8), so its arithmetic changed on purpose while Fit's did
// not. The Go compiler fuses multiply-add on arm64, ppc64le and s390x, so
// the constants hold for amd64 only.
const (
	bitsFit = 0x485b4930fa52fc01
	bitsAMU = 0x91a16a2e2731e100
)

// weightChecksum is FNV-64a over the IEEE-754 bits of every parameter
// value, in Params() order.
func weightChecksum(m *NECS) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range m.Params() {
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func bitsTrain() (*Tuner, *Dataset) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("PageRank")}
	opts := DefaultTrainOptions()
	opts.Collect.ConfigsPerInstance = 4
	opts.Collect.Sizes = []int{0, 1}
	opts.Collect.Clusters = []sparksim.Environment{sparksim.ClusterC}
	opts.NECS.Epochs = 3
	return Train(apps, opts)
}

func TestWeightBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("weight checksums are recorded for amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	tuner, ds := bitsTrain()
	if got := weightChecksum(tuner.Model); got != bitsFit {
		t.Errorf("Fit: weight checksum %#016x, recorded %#016x", got, uint64(bitsFit))
	}

	enc := EncodeAll(tuner.Model.Encoder, ds.Instances)
	if len(enc) < 24 {
		t.Fatalf("fixture has %d encoded instances, want at least 24", len(enc))
	}
	clone := tuner.Model.Clone()
	AdaptiveModelUpdate(clone, enc[:16], enc[len(enc)-8:], DefaultAMUConfig(), rand.New(rand.NewSource(19)))
	if got := weightChecksum(clone); got != bitsAMU {
		t.Errorf("AMU: weight checksum %#016x, recorded %#016x", got, uint64(bitsAMU))
	}
}
