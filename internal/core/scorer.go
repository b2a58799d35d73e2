package core

// This file implements AppScorer, the per-recommendation scoring context.
// One online recommendation scores NumCandidates (64 by default)
// configurations for a single fixed (application, datasize, environment)
// triple; every per-stage input except the knob-dependent features is
// identical across those candidates. AppScorer therefore gathers the shared
// parts exactly once — stage token ids, DAG matrices, data features,
// environment features, and each stage's h_code ‖ h_DAG, which depends only
// on (stage, encoder weights) and is memoized in the Encoder's stage-rep
// table (NECS.stageRep) —
// so per-candidate work is reduced to the candidate's dense features plus
// the tower MLP. The tower itself runs batched: all candidates' rows go
// through one GEMM per layer (batch.go). See DESIGN.md §12 for the kernel
// and its cost model.

import (
	"lite/internal/sparksim"
)

// scorerStage is the candidate-invariant encoding of one unique stage of
// the expanded plan: token ids and DAG matrices out of the encoder cache,
// plus the precomputed tower-input tail h_code ‖ h_DAG.
type scorerStage struct {
	index int
	toks  []int
	dag   *dagEnc
	// rep is h_code ‖ h_DAG, the candidate-invariant suffix of this
	// stage's tower input row, from the forward-only inference path
	// (bitwise identical to the graph). It aliases the Encoder's memoized
	// slice and is read-only: the kernels copy it into arena rows.
	rep []float64
}

// AppScorer scores candidate configurations for one fixed (application,
// datasize, environment) request. It is built once per recommendation and
// is safe for concurrent use by any number of goroutines: after
// construction it only reads its own precomputed encodings and the
// (read-only during scoring) model weights. Score(cfg) returns bitwise
// the same value NECS.PredictApp has always returned for the same inputs;
// TestScoreBatchBitwiseGolden pins that contract against the historical
// autograd path.
type AppScorer struct {
	model *NECS
	// plan is the expanded stage sequence; stages lists each unique stage
	// in first-appearance order with its static encoding.
	plan   []int
	stages []scorerStage
	// slot maps a stage index to its position in stages (= its row group
	// in the batched tower input).
	slot map[int]int
	// shared is data.Features() ++ env.Features(), the candidate-invariant
	// middle section of every stage's dense feature vector.
	shared []float64
	data   sparksim.DataSpec
	env    sparksim.Environment
}

// NewAppScorer gathers the candidate-invariant encodings for scoring app
// on data in env. Each unique stage's CNN and GCN forward pass runs the
// first time a model of these encoder weights sees the stage and is
// looked up afterwards. The
// returned scorer is immutable and safe for concurrent Score / ScoreBatch
// calls.
func (m *NECS) NewAppScorer(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment) *AppScorer {
	plan := app.ExpandedStages(data)
	s := &AppScorer{model: m, plan: plan, data: data, env: env, slot: make(map[int]int, len(app.Stages))}
	s.shared = append(append([]float64{}, data.Features()...), env.Features()...)
	seen := make(map[int]bool, len(app.Stages))
	for _, si := range plan {
		if seen[si] {
			continue
		}
		seen[si] = true
		st := &app.Stages[si]
		toks, dag := m.Encoder.stageStatic(st.Code, st.Ops, st.Edges)
		s.slot[si] = len(s.stages)
		s.stages = append(s.stages, scorerStage{index: si, toks: toks, dag: dag, rep: m.stageRep(toks, dag)})
	}
	return s
}

// Score estimates the application's total execution time (seconds) under
// cfg by summing per-stage NECS predictions over the expanded plan
// (Equation 5's aggregation), identically to NECS.PredictApp. Safe for
// concurrent use.
func (s *AppScorer) Score(cfg sparksim.Config) float64 {
	total, _ := s.ScoreChecked(cfg)
	return total
}

// ScoreChecked is Score plus a finiteness report: ok is false when any
// stage's raw (pre-clamp) prediction was non-finite. The returned score is
// still the clamped, always-finite aggregate — callers that must tell a
// genuinely slow candidate from a model that cannot rank at all (the serve
// layer's hot-swap validation gate) branch on ok. It is a batch of one
// through the batched kernel (batch.go), so single scoring and batched
// scoring cannot drift apart.
func (s *AppScorer) ScoreChecked(cfg sparksim.Config) (float64, bool) {
	var pred [1]float64
	var ok [1]bool
	s.ScoreBatch([]sparksim.Config{cfg}, pred[:], ok[:])
	return pred[0], ok[0]
}
