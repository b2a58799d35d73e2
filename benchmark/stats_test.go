package main

import (
	"math"
	"testing"
	"time"
)

func TestWindowMedianRateIgnoresAStolenSecond(t *testing.T) {
	// 100 completions in each of seconds 0, 1, 3, 4; a noisy neighbour takes
	// second 2 (10 completions); a partial sixth window holds 50.
	var done []time.Duration
	for sec, n := range []int{100, 100, 10, 100, 100, 50} {
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	phase := 5*time.Second + 500*time.Millisecond
	if got := windowMedianRate(done, phase); got != 100 {
		t.Fatalf("window median = %v, want 100 (mean would read %.1f)", got, float64(len(done))/phase.Seconds())
	}
	if got := windowCounts(done, phase); len(got) != 5 || got[2] != 10 {
		t.Fatalf("windows = %v, want five full windows with the third at 10", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Fatal("ten samples cannot support any tail percentile")
	}
	// 100 samples: p99 has one beyond it; the highest supported is p90.
	if v, pct, ok := tail(seq(100)); !ok || v != 90 || pct != 90 {
		t.Fatalf("tail(1..100) = %v at p%v ok=%v, want 90 at p90", v, pct, ok)
	}
	// 5000 samples: p99 has 49 beyond it and is reported as such.
	if v, pct, ok := tail(seq(5000)); !ok || v != 4951 || math.Abs(pct-99.02) > 1e-9 {
		t.Fatalf("tail(1..5000) = %v at p%v ok=%v, want 4951 at p99.02", v, pct, ok)
	}
}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	// Due at 10 ms, but the generator was stalled until 14 ms; the answer
	// came 1 ms after sending.
	a := arrival{due: 10 * time.Millisecond, sent: 14 * time.Millisecond, done: 15 * time.Millisecond}
	if got := a.latency(); got != 5*time.Millisecond {
		t.Fatalf("latency = %v, want 5ms (from the due time, not the send time)", got)
	}
	if got := a.lag(); got != 4*time.Millisecond {
		t.Fatalf("generator lag = %v, want 4ms", got)
	}
}

func TestSelfTimeIsLevelMinusLevelsBelow(t *testing.T) {
	parent := map[string]string{
		"client": "", "handler": "client", "recommend": "handler",
		"sample": "recommend", "score": "recommend", "gemm": "score",
		"other": "",
	}
	var spans []span
	add := func(name string, us ...int64) {
		for i, d := range us {
			spans = append(spans, span{Req: i, Name: name, Parent: parent[name], Start: 1000, End: 1000 + d*1000})
		}
	}
	add("client", 90, 100, 500) // median 100; the outlier does not move it
	add("handler", 80, 80, 80)
	add("recommend", 70, 70, 70)
	add("sample", 10, 10, 10)
	add("score", 40, 40, 40)
	add("gemm", 30, 30, 30)
	add("other", 999, 999, 999)

	med := spanMedians(spans)
	self := selfTimes(med, parent)
	want := map[string]float64{"client": 20, "handler": 10, "recommend": 20, "sample": 10, "score": 10, "gemm": 30}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	parts, whole := reconcile("client", med, parent)
	if parts != 100 || whole != 100 {
		t.Fatalf("parts %v / whole %v, want 100 / 100 (the tree rooted elsewhere is not counted)", parts, whole)
	}

	// A child that, replayed alone, takes longer than its parent breaks
	// nesting; the excess shows as parts > whole.
	med["gemm"] = 60
	if parts, whole := reconcile("client", med, parent); parts != 120 || whole != 100 {
		t.Fatalf("parts %v / whole %v, want 120 / 100", parts, whole)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean = %v", got)
	}
}
