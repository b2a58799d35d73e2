package core

// This file is the batched candidate-scoring kernel (DESIGN.md §12): the
// serving hot path that turns "64 candidates × S stages × one autograd
// forward each" into "one [64·S × d] matrix and one GEMM per tower layer".
//
// Data layout: for C candidates over the scorer's S unique stages, the
// tower input X is a (C·S)×d matrix, candidate-major — row c·S+s is
//
//	[ dense_c (feature.DenseWidth) | h_code_s ‖ h_DAG_s ]
//
// where dense_c = knobs(c) ++ shared(data,env) ++ derived(c,data,env) is
// candidate-dependent but stage-invariant, and the suffix is the stage's
// precomputed representation (scorer.go). Each tower layer then runs as a
// single MatMul over all rows. Because tensor.MatMulInto accumulates every
// output row independently (k ascending), row c·S+s is bitwise identical
// to scoring candidate c's stage s alone — batching is a pure layout
// transformation, which is what lets ScoreChecked route through a batch of
// one and the golden test pin batch-vs-graph equality. The candidate's S
// rows sit together and repeat dense_c, so layer 1 multiplies that prefix
// once per candidate: MatMulInto shares the partial sums of rows that
// repeat a prefix, with the same bits (DESIGN.md §12.7).
//
// Activations live in per-pass tensor arenas (nn.Arena) recycled through a
// sync.Pool, so steady-state scoring allocates no tower intermediates, and
// nothing per candidate: derived features are written into the arena row
// and the per-stage seconds are arena memory. Arena ownership: one
// goroutine per arena per pass; arena tensors never escape this file —
// per-candidate seconds are plain float64s copied into caller-owned
// slices, which the tuner takes from predPool.

import (
	"context"
	"sync"

	"lite/internal/feature"
	"lite/internal/nn"
	"lite/internal/sparksim"
)

// arenaPool recycles inference arenas across scoring passes. Arenas are
// taken per (goroutine, pass) and reset before reuse, so no two concurrent
// passes ever share a slab.
var arenaPool = sync.Pool{New: func() any { return new(nn.Arena) }}

// predSlots are one pass's per-candidate prediction and finiteness slots,
// recycled through predPool so that scoring a miss allocates neither.
type predSlots struct {
	preds []float64
	oks   []bool
}

var predPool = sync.Pool{New: func() any { return new(predSlots) }}

// getPredSlots returns slots for n candidates. The caller copies out what
// it keeps and then returns them with predPool.Put; ScoreBatchCtx has
// joined every worker by the time it returns or re-panics, so nothing
// writes the slots after that.
func getPredSlots(n int) *predSlots {
	p := predPool.Get().(*predSlots)
	if cap(p.preds) < n {
		p.preds, p.oks = make([]float64, n), make([]bool, n)
	}
	p.preds, p.oks = p.preds[:n], p.oks[:n]
	return p
}

// ScoreBatch scores every candidate in cfgs in one batched pass, writing
// the clamped aggregate prediction for cfgs[i] into preds[i] and its
// finiteness into oks[i] (false when any stage's raw prediction was NaN or
// ±Inf — see ScoreChecked). preds and oks must be at least len(cfgs) long;
// oks may be nil when the caller does not need the report. preds[i] is
// bitwise identical to Score(cfgs[i]). Safe for concurrent use.
func (s *AppScorer) ScoreBatch(cfgs []sparksim.Config, preds []float64, oks []bool) {
	if len(cfgs) == 0 {
		return
	}
	ar := arenaPool.Get().(*nn.Arena)
	ar.Reset()
	defer arenaPool.Put(ar)
	s.scoreBatch(ar, cfgs, preds, oks)
}

// scoreBatch is the batched kernel. It fills the (C·S)×d tower input in
// arena memory, runs the tower with one GEMM per layer, and folds the
// per-stage outputs into per-candidate totals in plan order.
func (s *AppScorer) scoreBatch(ar *nn.Arena, cfgs []sparksim.Config, preds []float64, oks []bool) {
	nStages := len(s.stages)
	repW := len(s.stages[0].rep)
	width := feature.DenseWidth + repW
	x := ar.Alloc(len(cfgs)*nStages, width)
	for ci, cfg := range cfgs {
		// Fill the candidate's first row: dense prefix + stage-0 rep …
		row := x.RowView(ci * nStages)
		off := copy(row, cfg.Normalized())
		off += copy(row[off:], s.shared)
		off += len(feature.DerivedResourceFeaturesInto(row[off:], cfg, s.data, s.env))
		copy(row[off:], s.stages[0].rep)
		// … then copy the dense prefix into the candidate's other rows and
		// append each stage's own rep.
		for si := 1; si < nStages; si++ {
			r := x.RowView(ci*nStages + si)
			copy(r, row[:feature.DenseWidth])
			copy(r[feature.DenseWidth:], s.stages[si].rep)
		}
	}
	out := s.model.Tower.InferBatch(ar, x)
	// Fold per-stage predictions into per-candidate plan-order totals.
	secs := ar.Floats(nStages)
	for ci := range cfgs {
		ok := true
		base := ci * nStages
		for si := 0; si < nStages; si++ {
			sec, fin := secondsChecked(out.Data[base+si])
			secs[si] = sec
			ok = ok && fin
		}
		var total float64
		for _, pi := range s.plan {
			total += secs[s.slot[pi]]
		}
		preds[ci] = total
		if oks != nil {
			oks[ci] = ok
		}
	}
}

// scoreChunkSize balances GEMM batch size against pool parallelism: with W
// pool workers a candidate set splits into at most W contiguous chunks,
// each scored as one batched pass on its own arena. Chunking never changes
// results (rows are independent — see the layout note above), only which
// GEMM call a row rides in.
func scoreChunkSize(n int) int {
	w := ScoreWorkers()
	if w <= 1 || n <= 1 {
		return n
	}
	return (n + w - 1) / w
}

// ScoreBatchCtx is ScoreBatch with cooperative cancellation and pool
// fan-out: the candidate set is split into one contiguous chunk per
// scoring-pool worker and chunks are scored concurrently (ParallelDoCtx),
// each as a single batched GEMM pass. Results are written by candidate
// index, so the output is deterministic — and bitwise identical to serial
// Score — at any pool width. On a cancelled context the remaining chunks
// are skipped, ctx.Err() is returned, and the caller must treat preds/oks
// as unwritten.
func (s *AppScorer) ScoreBatchCtx(ctx context.Context, cfgs []sparksim.Config, preds []float64, oks []bool) error {
	n := len(cfgs)
	if n == 0 {
		return ctx.Err()
	}
	chunk := scoreChunkSize(n)
	nChunks := (n + chunk - 1) / chunk
	if nChunks == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.ScoreBatch(cfgs, preds, oks)
		return ctx.Err()
	}
	return ParallelDoCtx(ctx, nChunks, func(i int) {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		var okSlice []bool
		if oks != nil {
			okSlice = oks[lo:hi]
		}
		s.ScoreBatch(cfgs[lo:hi], preds[lo:hi], okSlice)
	})
}
