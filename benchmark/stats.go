package main

import (
	"sort"
	"time"
)

// median of xs (not modified); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// windowCounts buckets completion times (offsets from the phase start)
// into 1-second windows and keeps only the windows that lie wholly inside
// the phase: a partial last window would read low.
func windowCounts(done []time.Duration, phase time.Duration) []float64 {
	counts := make([]float64, int(phase/time.Second))
	for _, d := range done {
		if w := int(d / time.Second); d >= 0 && w < len(counts) {
			counts[w]++
		}
	}
	return counts
}

// windowMedianRate is throughput as the median of per-second window
// counts. A noisy neighbour that steals a second or two moves a mean over
// the phase but not the median window.
func windowMedianRate(done []time.Duration, phase time.Duration) float64 {
	return median(windowCounts(done, phase))
}

// tail returns the value at the 99th percentile if at least ten samples lie
// beyond it, else at the highest percentile that has ten beyond it, along
// with that percentile. With ten samples or fewer there is no supported
// tail and ok is false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// idx is the 0-based rank; n-1-idx samples lie beyond it.
	idx := int(0.99 * float64(n))
	if idx > n-11 {
		idx = n - 11
	}
	return s[idx], 100 * float64(idx+1) / float64(n), true
}

// An arrival is one open-loop request: when it was due, when the generator
// actually sent it, and when its answer arrived (offsets from phase start).
type arrival struct {
	due, sent, done time.Duration
}

// latency is measured from the due time, so a stall charges every request
// that was due during it, not just the one that was in flight.
func (a arrival) latency() time.Duration { return a.done - a.due }

// lag is how late the generator ran; it is reported beside the latency so
// a slow generator is not mistaken for a slow server.
func (a arrival) lag() time.Duration { return a.sent - a.due }

// A span is one timed call into a layer's public API, made by the harness
// from outside the program.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanMedians groups span durations by name and returns each median, in
// microseconds.
func spanMedians(spans []span) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/1e3)
	}
	out := make(map[string]float64, len(by))
	for name, ds := range by {
		out[name] = median(ds)
	}
	return out
}

// selfTimes turns level medians into self times. Spans nest by replay —
// each level is the same request re-executed one layer further in — so a
// level's self time is its median minus the medians of the levels directly
// below it. parent maps a span name to its parent's name ("" for the
// root). A negative self time means the children, timed on their own, took
// longer than the parent that contains them: replay nesting did not hold.
func selfTimes(medians map[string]float64, parent map[string]string) map[string]float64 {
	self := make(map[string]float64, len(medians))
	for name, m := range medians {
		self[name] = m
	}
	for name, p := range parent {
		if _, ok := medians[name]; ok && p != "" {
			self[p] -= medians[name]
		}
	}
	return self
}

// reconcile sums the non-negative self times under root and returns
// the ratio to root's own median. Self times telescope, so the ratio is 1
// exactly when every level is at least as long as its children; it exceeds
// 1 by the amount replay nesting failed.
func reconcile(root string, medians map[string]float64, parent map[string]string) (parts, whole float64) {
	self := selfTimes(medians, parent)
	for name := range medians {
		under := false
		for at := name; at != ""; at = parent[at] {
			if at == root {
				under = true
				break
			}
		}
		if under && self[name] > 0 {
			parts += self[name]
		}
	}
	return parts, medians[root]
}
