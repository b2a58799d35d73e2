package core

// This file implements the scoring worker pool: a process-wide, bounded
// set of helper goroutines that candidate scoring (and any other
// embarrassingly parallel work) is spread across. Candidates are
// independent and the model is read-only during scoring, so the only
// coordination the pool needs is a bound on how many goroutines run at
// once.
//
// Design:
//
//   - One global pool sized to GOMAXPROCS by default (SetScoreWorkers
//     overrides it). The bound is process-wide, not per-call: sixteen
//     concurrent recommendations do not spawn 16×GOMAXPROCS goroutines.
//   - ParallelDoCtx never blocks waiting for a worker. The calling goroutine
//     always works through items itself and only *recruits* helpers when
//     free slots exist; under saturation a call simply degrades to serial
//     execution on the caller. No queuing, no deadlock — a helper that
//     itself calls ParallelDoCtx (nested fan-out) just finds fewer slots.
//   - Determinism: fn(i) receives the item index, so callers write results
//     into pre-sized slices by index. Which goroutine scores an item never
//     affects where the result lands.
//   - Panics in fn are captured and re-raised on the calling goroutine, so
//     callers' recover guards (Tuner.tryNECSTier) keep working when the
//     panicking item happened to run on a helper.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// scorePool is one immutable pool configuration. SetScoreWorkers swaps the
// whole struct through an atomic pointer, so a resize never races with
// in-flight acquires: goroutines that hold a slot of the old pool return
// it to the old pool's channel, which is then garbage collected.
type scorePool struct {
	// workers is the configured parallelism width (callers + helpers).
	workers int
	// slots holds workers-1 tokens; recruiting a helper takes one,
	// helper exit returns it. nil when workers <= 1 (serial).
	slots chan struct{}
	// busy counts currently running helper goroutines.
	busy atomic.Int64
	// items counts every item ever dispatched through ParallelDoCtx.
	items atomic.Uint64
}

var activePool atomic.Pointer[scorePool]

func init() { SetScoreWorkers(0) }

// SetScoreWorkers resizes the global scoring pool to n-way parallelism
// (one caller plus n-1 helper goroutines per ParallelDoCtx, bounded across
// the whole process). n <= 0 restores the default, GOMAXPROCS. n == 1
// forces serial scoring. Safe to call at any time, including while
// scoring is in flight: running work finishes under the old bound.
func SetScoreWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &scorePool{workers: n}
	if n > 1 {
		p.slots = make(chan struct{}, n-1)
		for i := 0; i < n-1; i++ {
			p.slots <- struct{}{}
		}
	}
	activePool.Store(p)
}

// ScoreWorkers returns the configured parallelism width of the global
// scoring pool.
func ScoreWorkers() int { return activePool.Load().workers }

// PoolStats is a snapshot of the scoring pool's state, exported so the
// serving layer can publish pool depth and utilization as metrics.
type PoolStats struct {
	// Workers is the configured parallelism width (SetScoreWorkers).
	Workers int
	// Busy is the number of helper goroutines running right now.
	Busy int
	// Utilization is Busy over the helper capacity (Workers-1), in [0,1];
	// 0 when the pool is serial.
	Utilization float64
	// Items is the cumulative number of work items dispatched through
	// ParallelDoCtx since the pool was (re)configured.
	Items uint64
}

// ScorePoolStats returns a snapshot of the global pool. Safe for
// concurrent use.
func ScorePoolStats() PoolStats {
	p := activePool.Load()
	s := PoolStats{
		Workers: p.workers,
		Busy:    int(p.busy.Load()),
		Items:   p.items.Load(),
	}
	if p.workers > 1 {
		s.Utilization = float64(s.Busy) / float64(p.workers-1)
	}
	return s
}

// ParallelDoCtx runs fn(i) for every i in [0, n), fanning the items across
// the calling goroutine plus up to ScoreWorkers()-1 recruited helpers.
// It returns when every item has been processed. fn must be safe to call
// from multiple goroutines; results should be written into index i of a
// caller-owned slice, which keeps output ordering deterministic no matter
// how items are scheduled. If fn panics, the first panic value is
// re-raised on the calling goroutine after the remaining workers drain.
//
// Cancellation is cooperative: every worker (the caller included) checks
// ctx between items, so an abandoned fan-out stops recruiting pool
// capacity as soon as its context is cancelled. It returns ctx.Err() when
// the run was cut short — items already started finish (fn is never
// interrupted mid-call), remaining items are skipped and the caller must
// treat its result slots as unwritten.
func ParallelDoCtx(ctx context.Context, n int, fn func(int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	parallelDo(ctx.Done(), n, fn)
	return ctx.Err()
}

func parallelDo(done <-chan struct{}, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	p := activePool.Load()
	p.items.Add(uint64(n))
	if n == 1 || p.slots == nil {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		aborted  atomic.Bool
		panicMu  sync.Mutex
		panicVal any
	)
	work := func() {
		for !aborted.Load() {
			if done != nil {
				select {
				case <-done:
					aborted.Store(true)
					return
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						if panicVal == nil {
							panicVal = r
						}
						panicMu.Unlock()
						aborted.Store(true)
					}
				}()
				fn(i)
			}()
		}
	}

	var wg sync.WaitGroup
	// Recruit at most n-1 helpers (the caller handles the rest), and only
	// as many as the pool has free slots for — never block to get one.
recruit:
	for h := 0; h < n-1 && h < p.workers-1; h++ {
		select {
		case <-p.slots:
			p.busy.Add(1)
			wg.Add(1)
			go func() {
				defer func() {
					p.busy.Add(-1)
					p.slots <- struct{}{}
					wg.Done()
				}()
				work()
			}()
		default:
			break recruit
		}
	}
	work()
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
