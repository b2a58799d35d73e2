package core

// The autograd golden reference of the batched inference kernel: the
// per-candidate scoring path the serving code used before batch.go, one
// full CNN+GCN+tower forward per stage per call. Tests compare the kernel
// against it bit for bit (TestScoreBatchBitwiseGolden); no serving path
// uses it.

import (
	"lite/internal/feature"
	"lite/internal/sparksim"
)

// PredictSeconds returns the predicted stage time in seconds, clamped into
// [0, maxPredictSeconds] (see secondsChecked).
func (m *NECS) PredictSeconds(x *Encoded) float64 {
	s, _ := m.PredictSecondsChecked(x)
	return s
}

// PredictSecondsChecked is PredictSeconds plus secondsChecked's
// finiteness report on the raw (pre-clamp) prediction.
func (m *NECS) PredictSecondsChecked(x *Encoded) (float64, bool) {
	return secondsChecked(m.Predict(x))
}

// scoreGraph is the historical per-candidate scoring path through the
// autograd graph (one full CNN+GCN+tower forward per stage per call). It
// is retained as the bitwise golden reference the batched inference kernel
// is tested against, and is not used on any serving path.
func (s *AppScorer) scoreGraph(cfg sparksim.Config) (float64, bool) {
	// The candidate-dependent dense sections are shared by every stage of
	// this candidate: compute them once, not once per stage.
	knobs := cfg.Normalized()
	derived := feature.DerivedResourceFeatures(cfg, s.data, s.env)
	perStage := make(map[int]float64, len(s.stages))
	ok := true
	for _, st := range s.stages {
		dense := make([]float64, 0, feature.DenseWidth)
		dense = append(dense, knobs...)
		dense = append(dense, s.shared...)
		dense = append(dense, derived...)
		sec, fin := s.model.PredictSecondsChecked(&Encoded{
			StageIndex: st.index,
			TokenIDs:   st.toks,
			NodeFeats:  st.dag.nodes,
			AHat:       st.dag.aHat,
			Dense:      dense,
			Weight:     1,
		})
		perStage[st.index] = sec
		ok = ok && fin
	}
	// Sum in plan order, exactly as PredictApp always has, so the
	// aggregate is bit-identical to the batched path.
	var total float64
	for _, si := range s.plan {
		total += perStage[si]
	}
	return total, ok
}
