package api

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync/atomic"
	"unicode/utf8"
)

// The /v1/recommend response is the one body every cache hit writes and
// every client reads, so its wire format has a hand-written codec here
// instead of a trip through encoding/json's reflection. The encoder's
// bytes are exactly json.Marshal's; the decoder accepts exactly what
// json.Unmarshal accepts and produces the same value, because anything off
// its fast path is handed to json.Unmarshal.

// AppendRecommendResponse appends the JSON encoding of r to dst and
// returns the extended buffer. The bytes are identical to
// json.Marshal(r): fields in declaration order, predicted_seconds omitted
// when nil, config keys sorted, a nil config written as null, floats in
// encoding/json's format and strings escaped as encoding/json escapes
// them (HTML-safe, invalid UTF-8 as \ufffd, U+2028 and U+2029 escaped).
// A NaN or infinite float is a *json.UnsupportedValueError, as from
// json.Marshal; dst is then returned unextended.
func AppendRecommendResponse(dst []byte, r *RecommendResponse) ([]byte, error) {
	b := append(dst, `{"app":`...)
	b = appendString(b, r.App)
	b = append(b, `,"size_mb":`...)
	b, err := appendFloat(b, r.SizeMB)
	if err != nil {
		return dst, err
	}
	b = append(b, `,"cluster":`...)
	b = appendString(b, r.Cluster)
	b = append(b, `,"config":`...)
	if b, err = appendConfig(b, r.Config); err != nil {
		return dst, err
	}
	if r.PredictedSeconds != nil {
		b = append(b, `,"predicted_seconds":`...)
		if b, err = appendFloat(b, *r.PredictedSeconds); err != nil {
			return dst, err
		}
	}
	b = append(b, `,"tier":`...)
	b = appendString(b, r.Tier)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, r.Generation, 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	b = append(b, `,"coalesced":`...)
	b = strconv.AppendBool(b, r.Coalesced)
	b = append(b, `,"batch_size":`...)
	b = strconv.AppendInt(b, int64(r.BatchSize), 10)
	b = append(b, `,"overhead_ms":`...)
	if b, err = appendFloat(b, r.OverheadMS); err != nil {
		return dst, err
	}
	return append(b, '}'), nil
}

// lastKeys is the sorted key set of the last config map appendConfig had
// to sort. Every answer carries the same knob names, so after the first
// answer a map is written in this order without being sorted again.
var lastKeys atomic.Pointer[[]string]

// appendConfig writes a knob map with its keys in sorted order, as
// encoding/json does for every map with string keys.
func appendConfig(b []byte, m map[string]float64) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	if keys := lastKeys.Load(); keys != nil && len(*keys) == len(m) {
		// The same number of distinct keys, all present: the same set.
		if out, ok, err := appendInOrder(b, m, *keys); ok || err != nil {
			return out, err
		}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	lastKeys.Store(&keys)
	out, _, err := appendInOrder(b, m, keys)
	return out, err
}

// appendInOrder writes m's entries in the order of keys. It reports false,
// with b unextended, when a key is missing from m.
func appendInOrder(b []byte, m map[string]float64, keys []string) ([]byte, bool, error) {
	start := len(b)
	b = append(b, '{')
	for i, k := range keys {
		v, ok := m[k]
		if !ok {
			return b[:start], false, nil
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		var err error
		if b, err = appendFloat(b, v); err != nil {
			return b, true, err
		}
	}
	return append(b, '}'), true, nil
}

// appendFloat formats f as encoding/json formats a float64: the shortest
// representation in 'f' format, switching to 'e' below 1e-6 and from 1e21
// on, with a two-digit negative exponent shortened (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & become \u003c, \u003e and \u0026, control
// bytes without a short escape become \u00XX, each invalid UTF-8 byte
// becomes \ufffd, and U+2028 / U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// DecodeRecommendResponse decodes a /v1/recommend body into r with
// json.Unmarshal's semantics: the same inputs are accepted and rejected,
// and an accepted input leaves r holding the same value. The flat shape
// the server writes — every key one of the exact lowercase field names,
// each at most once, and strings without escapes — is decoded without
// reflection, from one string copy of data; any other input, and any r
// whose config or predicted_seconds is already set, is handed to
// json.Unmarshal.
func DecodeRecommendResponse(data []byte, r *RecommendResponse) error {
	if r.Config == nil && r.PredictedSeconds == nil {
		// Decode into a copy and commit only a complete decode: a
		// fallback must start from the caller's untouched value, since
		// json.Unmarshal writes nothing when the input is malformed.
		d := respDecoder{s: string(data)}
		out := *r
		if d.response(&out) {
			*r = out
			return nil
		}
	}
	return json.Unmarshal(data, r)
}

// respDecoder is the reflection-free reader of DecodeRecommendResponse.
// Every method reports false when the input leaves the fast path, which
// is not necessarily an error: json.Unmarshal decides.
type respDecoder struct {
	s string
	i int
}

// Field bits, so a repeated key leaves the fast path.
const (
	fApp = 1 << iota
	fSizeMB
	fCluster
	fConfig
	fPredicted
	fTier
	fGeneration
	fCached
	fCoalesced
	fBatchSize
	fOverheadMS
)

func (d *respDecoder) response(r *RecommendResponse) bool {
	if !d.consume('{') {
		return false
	}
	seen := 0
	if d.consume('}') {
		return d.end()
	}
	for {
		key, ok := d.str()
		if !ok || !d.consume(':') {
			return false
		}
		var bit int
		switch key {
		case "app":
			bit = fApp
			r.App, ok = d.str()
		case "size_mb":
			bit = fSizeMB
			r.SizeMB, ok = d.float()
		case "cluster":
			bit = fCluster
			r.Cluster, ok = d.str()
		case "config":
			bit = fConfig
			r.Config, ok = d.config()
		case "predicted_seconds":
			bit = fPredicted
			var p float64
			if p, ok = d.float(); ok {
				r.PredictedSeconds = &p
			}
		case "tier":
			bit = fTier
			r.Tier, ok = d.str()
		case "generation":
			bit = fGeneration
			var lit string
			if lit, ok = d.number(); ok {
				var err error
				r.Generation, err = strconv.ParseUint(lit, 10, 64)
				ok = err == nil
			}
		case "cached":
			bit = fCached
			r.Cached, ok = d.boolean()
		case "coalesced":
			bit = fCoalesced
			r.Coalesced, ok = d.boolean()
		case "batch_size":
			bit = fBatchSize
			var lit string
			if lit, ok = d.number(); ok {
				n, err := strconv.ParseInt(lit, 10, strconv.IntSize)
				r.BatchSize, ok = int(n), err == nil
			}
		case "overhead_ms":
			bit = fOverheadMS
			r.OverheadMS, ok = d.float()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.consume('}') {
			return d.end()
		}
		if !d.consume(',') {
			return false
		}
	}
}

// config reads a knob object, or null as a nil map. The pairs are
// collected first so the map is made at its final size.
func (d *respDecoder) config() (map[string]float64, bool) {
	if d.literal("null") {
		return nil, true
	}
	if !d.consume('{') {
		return nil, false
	}
	type pair struct {
		k string
		v float64
	}
	var stack [32]pair
	pairs := stack[:0]
	if !d.consume('}') {
		for {
			k, ok := d.str()
			if !ok || !d.consume(':') {
				return nil, false
			}
			v, ok := d.float()
			if !ok {
				return nil, false
			}
			pairs = append(pairs, pair{k, v})
			if d.consume('}') {
				break
			}
			if !d.consume(',') {
				return nil, false
			}
		}
	}
	m := make(map[string]float64, len(pairs))
	for _, p := range pairs {
		m[p.k] = p.v
	}
	return m, true
}

func (d *respDecoder) skipSpace() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (d *respDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace follows the top-level value.
func (d *respDecoder) end() bool {
	d.skipSpace()
	return d.i == len(d.s)
}

// literal skips whitespace and then lit, if lit is next.
func (d *respDecoder) literal(lit string) bool {
	d.skipSpace()
	if len(d.s)-d.i >= len(lit) && d.s[d.i:d.i+len(lit)] == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func (d *respDecoder) boolean() (bool, bool) {
	switch {
	case d.literal("true"):
		return true, true
	case d.literal("false"):
		return false, true
	}
	return false, false
}

// str reads a string that needs no unescaping: no backslash, no control
// byte and valid UTF-8, so its value is its bytes, shared with the input.
func (d *respDecoder) str() (string, bool) {
	if !d.consume('"') {
		return "", false
	}
	start := d.i
	ascii := true
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; {
		case c == '"':
			v := d.s[start:d.i]
			d.i++
			return v, ascii || utf8.ValidString(v)
		case c == '\\' || c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", false
}

// float reads a number as json.Unmarshal reads one into a float64.
func (d *respDecoder) float() (float64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(lit, 64)
	return f, err == nil
}

// number reads one literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is narrower than
// what strconv parses.
func (d *respDecoder) number() (string, bool) {
	d.skipSpace()
	s, start := d.s, d.i
	i := start
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && s[i] >= '1' && s[i] <= '9':
		i = digits(s, i)
	default:
		return "", false
	}
	if i < len(s) && s[i] == '.' {
		j := digits(s, i+1)
		if j == i+1 {
			return "", false
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(s, i)
		if j == i {
			return "", false
		}
		i = j
	}
	d.i = i
	return s[start:i], true
}

// digits returns the index of the first non-digit at or after i.
func digits(s string, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}
