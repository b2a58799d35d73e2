package feature

import (
	"slices"
	"strings"
	"testing"

	"lite/internal/workload"
)

// tokenizeRef is the rune-by-rune tokenizer Tokenize replaced, kept as the
// reference its byte scan must reproduce.
func tokenizeRef(code string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range code {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return toks
}

// TestTokenizeMatchesReferenceOnCorpus: every stage of every registered
// workload tokenizes as the reference tokenizes it.
func TestTokenizeMatchesReferenceOnCorpus(t *testing.T) {
	for _, app := range workload.All() {
		for _, st := range app.Spec.Stages {
			if got, want := Tokenize(st.Code), tokenizeRef(st.Code); !slices.Equal(got, want) {
				t.Fatalf("%s: Tokenize = %q, reference = %q", app.Spec.Name, got, want)
			}
		}
	}
}

func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "val x = rdd.sortByKey(ascending = false)", "a_b1 2c", "héllo wörld", "x\xffy\xc3",
		"\xc3a", "日本語tokens", "\xe2\x80\xa8sep", "_", "9lives", "tab\tnew\nline",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, code string) {
		if got, want := Tokenize(code), tokenizeRef(code); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference = %q", code, got, want)
		}
	})
}
