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
