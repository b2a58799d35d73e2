package feature_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"lite/internal/feature"
	"lite/internal/retrieval"
)

// FuzzTokenize: Tokenize's byte scan splits any input as the rune-by-rune
// reference does, and retrieval.EmbedCode, which counts the same tokens in
// one pass without building them, embeds the input bit for bit as Embed
// does over Tokenize's tokens.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "val x = rdd.sortByKey(ascending = false)", "a_b1 2c", "héllo wörld", "x\xffy\xc3",
		"\xc3a", "日本語tokens", "\xe2\x80\xa8sep", "_", "9lives", "tab\tnew\nline",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, code string) {
		toks := feature.Tokenize(code)
		if want := feature.TokenizeRef(code); !slices.Equal(toks, want) {
			t.Fatalf("Tokenize(%q) = %q, reference = %q", code, toks, want)
		}
		ops := strings.Fields(code)
		got, want := retrieval.EmbedCode(code, ops), retrieval.Embed(toks, ops)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("EmbedCode(%q) slot %d = %v, Embed over Tokenize = %v", code, i, got[i], want[i])
			}
		}
	})
}
