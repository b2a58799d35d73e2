package sparksim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// fmtJitter is jitter as it stood when it hashed its key through
// fmt.Fprintf: the reference jitterKey's bytes must equal.
func fmtJitter(appName, envName string, stage, seqIdx int, cfg Config, sizeMB float64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%.0f", appName, envName, stage, seqIdx, sizeMB)
	for _, v := range cfg {
		fmt.Fprintf(h, "|%.2f", v)
	}
	u := h.Sum64()
	return float64(u%20001)/10000 - 1
}

// fmtJitterKey is the text fmtJitter hashes.
func fmtJitterKey(appName, envName string, stage, seqIdx int, cfg Config, sizeMB float64) string {
	s := fmt.Sprintf("%s|%s|%d|%d|%.0f", appName, envName, stage, seqIdx, sizeMB)
	for _, v := range cfg {
		s += fmt.Sprintf("|%.2f", v)
	}
	return s
}

// jitter's key and hash equal the fmt form for every special value on
// every knob and for the size: signed zeros, NaN, ±Inf, values that round
// across a digit, and magnitudes fmt prints in full.
func TestJitterKeyMatchesFmt(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		-0.001, 0.005, 0.015, 2.675, -2.675, 0.5, 1.5, 2.5, -0.5, 1e-300,
		1e15, -1e15, 1e21, 1.7976931348623157e308, -1.7976931348623157e308,
		math.SmallestNonzeroFloat64, 123456789.987654321, -4503599627370497,
	}
	check := func(name, app, env string, stage, seq int, cfg Config, size float64) {
		t.Helper()
		want := fmtJitterKey(app, env, stage, seq, cfg, size)
		if got := string(jitterKey(nil, app, env, stage, seq, cfg, size)); got != want {
			t.Fatalf("%s: key %q, fmt form %q", name, got, want)
		}
		got, ref := jitter(app, env, stage, seq, cfg, size), fmtJitter(app, env, stage, seq, cfg, size)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("%s: jitter %v, fmt form %v", name, got, ref)
		}
	}
	base := DefaultConfig()
	for _, v := range specials {
		for k := range base {
			cfg := base
			cfg[k] = v
			check(fmt.Sprintf("knob %d = %v", k, v), "WordCount", "C", 3, 7, cfg, 2048)
		}
		check(fmt.Sprintf("size = %v", v), "WordCount", "C", 3, 7, base, v)
		var all Config
		for k := range all {
			all[k] = v
		}
		check(fmt.Sprintf("every knob = %v", v), "", "", -1, math.MaxInt, all, v)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		cfg := RandomConfig(rng)
		for k := range cfg {
			cfg[k] *= math.Pow(10, float64(rng.Intn(30)-10))
		}
		check(fmt.Sprintf("random %d", i), "app|with|bars", "Ω", rng.Intn(50), -rng.Intn(50), cfg, rng.NormFloat64()*1e6)
	}
}

func TestJitterAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	if n := testing.AllocsPerRun(100, func() { jitter("WordCount", "C", 3, 7, cfg, 2048) }); n != 0 {
		t.Fatalf("jitter allocates %.0f times per call, want 0", n)
	}
}
