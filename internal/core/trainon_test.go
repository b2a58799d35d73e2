package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"lite/internal/workload"
)

// serialTrainOn is TrainOn as it stood before the forests were fitted
// beside NECS: one rng through NewNECS, Fit and NewCandidateGenerator, in
// that order, on one goroutine.
func serialTrainOn(ds *Dataset, opts TrainOptions) *Tuner {
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	enc := NewEncoder(ds.Instances, opts.NECS)
	model := NewNECS(enc, opts.NECS, rng)
	model.Fit(EncodeAll(enc, ds.Instances), rng)
	return &Tuner{
		Model:         model,
		ACG:           NewCandidateGenerator(ds.Runs, rng),
		NumCandidates: 64,
		AMU:           DefaultAMUConfig(),
		rng:           rng,
	}
}

// TrainOn's tuner — NECS weights, vocabularies and ACG forests — saves to
// the serial composition's bytes, and leaves its rng where the serial one
// is, whatever GOMAXPROCS is.
func TestTrainOnMatchesSerialComposition(t *testing.T) {
	apps := []*workload.App{workload.ByName("WordCount"), workload.ByName("PageRank")}
	ds := smallDataset(t, apps, 3, 5)
	opts := DefaultTrainOptions()
	opts.NECS = fastConfig()
	opts.Seed = 3
	var want bytes.Buffer
	ref := serialTrainOn(ds, opts)
	if err := ref.Save(&want); err != nil {
		t.Fatal(err)
	}
	wantNext := ref.rng.Int63()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tuner := TrainOn(ds, opts)
			var got bytes.Buffer
			if err := tuner.Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("TrainOn saves %d bytes that differ from the serial composition's %d", got.Len(), want.Len())
			}
			if next := tuner.rng.Int63(); next != wantNext {
				t.Fatalf("TrainOn leaves its rng at draw %d, the serial composition at %d", next, wantNext)
			}
		})
	}
}

// A panic while the forests are fitted reaches TrainOn's caller: a dataset
// without runs gives the forests nothing to bootstrap from.
func TestTrainOnRaisesForestPanic(t *testing.T) {
	ds := smallDataset(t, []*workload.App{workload.ByName("WordCount")}, 2, 5)
	ds.Runs = nil
	opts := DefaultTrainOptions()
	opts.NECS = fastConfig()
	opts.NECS.Epochs = 1
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("TrainOn returned on a dataset without runs, want the forests' panic")
		}
		if !strings.Contains(fmt.Sprint(r), "Intn") {
			t.Fatalf("TrainOn panicked with %v, want the forests' bootstrap panic", r)
		}
	}()
	TrainOn(ds, opts)
}
