package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1/recommend request and response are the bodies every request
// sends and reads, so their wire format has a hand-written codec here
// instead of a trip through encoding/json's reflection. The encoders'
// bytes are exactly json.Marshal's; each decoder accepts exactly what its
// encoding/json counterpart accepts and produces the same value, because
// anything off its fast path is handed to that counterpart.

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

// htmlSafe marks the ASCII bytes appendString copies as they are.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString writes s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & become \u003c, \u003e and \u0026, control
// bytes without a short escape become \u00XX, each invalid UTF-8 byte
// becomes \ufffd, and U+2028 / U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
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

// AppendRecommendRequest appends the JSON encoding of r to dst and
// returns the extended buffer. The bytes are identical to json.Marshal(r):
// features omitted when nil, code and ops omitted when empty, floats and
// strings as AppendRecommendResponse writes them. A NaN or infinite
// size_mb is a *json.UnsupportedValueError; dst is then returned
// unextended.
func AppendRecommendRequest(dst []byte, r *RecommendRequest) ([]byte, error) {
	b := append(dst, `{"app":`...)
	b = appendString(b, r.App)
	b = append(b, `,"size_mb":`...)
	b, err := appendFloat(b, r.SizeMB)
	if err != nil {
		return dst, err
	}
	b = append(b, `,"cluster":`...)
	b = appendString(b, r.Cluster)
	if f := r.Features; f != nil {
		b = append(b, `,"features":{`...)
		if f.Code != "" {
			b = append(b, `"code":`...)
			b = appendString(b, f.Code)
		}
		if len(f.Ops) > 0 {
			if f.Code != "" {
				b = append(b, ',')
			}
			b = append(b, `"ops":[`...)
			for i, op := range f.Ops {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendString(b, op)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// DecodeStrict decodes data into v the way every /v1 endpoint reads a
// request body: exactly one JSON value, no field v's type lacks, and
// nothing but whitespace after the value. The errors are json.Decoder's.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// DecodeRecommendRequest decodes a /v1/recommend request body into r with
// DecodeStrict's semantics: the same inputs are accepted and rejected,
// with the same errors, and an accepted input leaves r holding the same
// value. The flat shape — keys exactly app, size_mb, cluster and
// features{code, ops}, each at most once, valid UTF-8 strings without
// surrogate escapes, and JSON numbers that fit a float64 — is decoded
// without reflection, copying only the strings it keeps; any other input,
// and any r whose features are already set, is handed to DecodeStrict.
func DecodeRecommendRequest(data []byte, r *RecommendRequest) error {
	if r.Features == nil {
		d := reader{b: data}
		out := *r
		if d.request(&out) {
			*r = out
			return nil
		}
	}
	return DecodeStrict(data, r)
}

// DecodeRecommendResponse decodes a /v1/recommend body into r with
// json.Unmarshal's semantics: the same inputs are accepted and rejected,
// and an accepted input leaves r holding the same value. The flat shape
// the server writes — every key one of the exact lowercase field names,
// each at most once, and valid UTF-8 strings without surrogate escapes —
// is decoded without reflection; any other input, and any r whose config
// or predicted_seconds is already set, is handed to json.Unmarshal.
func DecodeRecommendResponse(data []byte, r *RecommendResponse) error {
	if r.Config == nil && r.PredictedSeconds == nil {
		// Decode into a copy and commit only a complete decode: a
		// fallback must start from the caller's untouched value, since
		// json.Unmarshal writes nothing when the input is malformed.
		d := reader{b: data}
		out := *r
		if d.response(&out) {
			*r = out
			return nil
		}
	}
	return json.Unmarshal(data, r)
}

// reader is the reflection-free JSON reader behind DecodeRecommendRequest
// and DecodeRecommendResponse. It reads the input bytes in place and
// copies only the strings a decoder keeps, all into one buffer. Every
// method reports false when the input leaves the fast path, which is not
// necessarily an error: the fallback decoder decides.
type reader struct {
	b    []byte
	i    int
	keep strings.Builder
}

// Request and response field bits, so a repeated key leaves the fast
// path.
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
	fFeatures
	fCode
	fOps
)

func (d *reader) request(r *RecommendRequest) bool {
	return d.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "app":
			r.App, ok = d.str()
			return fApp, ok
		case "size_mb":
			r.SizeMB, ok = d.float()
			return fSizeMB, ok
		case "cluster":
			r.Cluster, ok = d.str()
			return fCluster, ok
		case "features":
			r.Features, ok = d.features()
			return fFeatures, ok
		}
		return 0, false
	}) && d.end()
}

// features reads the features object. An empty one is still a non-nil
// *AppFeatures, as json.Decoder makes it.
func (d *reader) features() (*AppFeatures, bool) {
	f := new(AppFeatures)
	ok := d.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "code":
			f.Code, ok = d.str()
			return fCode, ok
		case "ops":
			f.Ops, ok = d.strs()
			return fOps, ok
		}
		return 0, false
	})
	return f, ok
}

// strs reads an array of strings. An empty array is an empty, non-nil
// slice, as json.Decoder makes it.
func (d *reader) strs() ([]string, bool) {
	if !d.consume('[') {
		return nil, false
	}
	var stack [16]string
	out := stack[:0]
	if !d.consume(']') {
		for {
			s, ok := d.str()
			if !ok {
				return nil, false
			}
			out = append(out, s)
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return nil, false
			}
		}
	}
	return append(make([]string, 0, len(out)), out...), true
}

func (d *reader) response(r *RecommendResponse) bool {
	return d.object(func(key []byte) (bit int, ok bool) {
		switch string(key) {
		case "app":
			r.App, ok = d.str()
			return fApp, ok
		case "size_mb":
			r.SizeMB, ok = d.float()
			return fSizeMB, ok
		case "cluster":
			r.Cluster, ok = d.str()
			return fCluster, ok
		case "config":
			r.Config, ok = d.config()
			return fConfig, ok
		case "predicted_seconds":
			var p float64
			if p, ok = d.float(); ok {
				r.PredictedSeconds = &p
			}
			return fPredicted, ok
		case "tier":
			r.Tier, ok = d.str()
			return fTier, ok
		case "generation":
			var lit []byte
			if lit, ok = d.number(); ok {
				var err error
				r.Generation, err = strconv.ParseUint(string(lit), 10, 64)
				ok = err == nil
			}
			return fGeneration, ok
		case "cached":
			r.Cached, ok = d.boolean()
			return fCached, ok
		case "coalesced":
			r.Coalesced, ok = d.boolean()
			return fCoalesced, ok
		case "batch_size":
			var lit []byte
			if lit, ok = d.number(); ok {
				n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
				r.BatchSize, ok = int(n), err == nil
			}
			return fBatchSize, ok
		case "overhead_ms":
			r.OverheadMS, ok = d.float()
			return fOverheadMS, ok
		}
		return 0, false
	}) && d.end()
}

// object reads one object. For each key, field reads the value and returns
// the key's bit, or 0 for a key it does not know; an unknown or repeated
// key leaves the fast path.
func (d *reader) object(field func(key []byte) (bit int, ok bool)) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	seen := 0
	for {
		key, ok := d.key()
		if !ok || !d.consume(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// config reads a knob object, or null as a nil map. The pairs are
// collected first so the map is made at its final size.
func (d *reader) config() (map[string]float64, bool) {
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

func (d *reader) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (d *reader) consume(c byte) bool {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace follows the top-level value.
func (d *reader) end() bool {
	d.skipSpace()
	return d.i == len(d.b)
}

// literal skips whitespace and then lit, if lit is next.
func (d *reader) literal(lit string) bool {
	d.skipSpace()
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func (d *reader) boolean() (bool, bool) {
	switch {
	case d.literal("true"):
		return true, true
	case d.literal("false"):
		return false, true
	}
	return false, false
}

// key reads an object key in place, without copying it. A key with an
// escape or a control byte leaves the fast path: no field name needs one.
func (d *reader) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c == '\\' || c < ' ':
			return nil, false
		}
	}
	return nil, false
}

// plain marks the bytes a string copies as they are: printable ASCII other
// than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a string and returns its value, copied into the keep buffer.
// The escapes \" \\ \/ \b \f \n \r \t and \uXXXX are decoded; a control
// byte, invalid UTF-8, a surrogate escape (which json.Decoder pairs or
// replaces) or any other escape leaves the fast path.
func (d *reader) str() (string, bool) {
	if !d.consume('"') {
		return "", false
	}
	if d.keep.Cap() == 0 {
		// Every kept string is at most as long as its quoted form, so what
		// is left of the input bounds them all: one allocation.
		d.keep.Grow(len(d.b) - d.i)
	}
	start := d.keep.Len()
	b, i := d.b, d.i
	run := i
	for {
		for i < len(b) && plain[b[i]] {
			i++
		}
		if i == len(b) {
			return "", false
		}
		switch c := b[i]; {
		case c == '"':
			d.keep.Write(b[run:i])
			d.i = i + 1
			return d.keep.String()[start:], true
		case c == '\\':
			d.keep.Write(b[run:i])
			d.i = i
			if !d.escape() {
				return "", false
			}
			i = d.i
			run = i
		case c < ' ':
			return "", false
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			i += size
		}
	}
}

// escape decodes the escape sequence at d.i into the keep buffer.
func (d *reader) escape() bool {
	if d.i+1 >= len(d.b) {
		return false
	}
	c := d.b[d.i+1]
	d.i += 2
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		if len(d.b)-d.i < 4 {
			return false
		}
		var r rune
		for _, h := range d.b[d.i : d.i+4] {
			switch {
			case h >= '0' && h <= '9':
				h -= '0'
			case h >= 'a' && h <= 'f':
				h -= 'a' - 10
			case h >= 'A' && h <= 'F':
				h -= 'A' - 10
			default:
				return false
			}
			r = r<<4 | rune(h)
		}
		if utf16.IsSurrogate(r) {
			return false
		}
		d.i += 4
		d.keep.WriteRune(r)
		return true
	default:
		return false
	}
	d.keep.WriteByte(c)
	return true
}

// float reads a number as json.Unmarshal reads one into a float64.
func (d *reader) float() (float64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// number reads one literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is narrower than
// what strconv parses.
func (d *reader) number() ([]byte, bool) {
	d.skipSpace()
	s, start := d.b, d.i
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
		return nil, false
	}
	if i < len(s) && s[i] == '.' {
		j := digits(s, i+1)
		if j == i+1 {
			return nil, false
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
			return nil, false
		}
		i = j
	}
	d.i = i
	return s[start:i], true
}

// digits returns the index of the first non-digit at or after i.
func digits(s []byte, i int) int {
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return i
}
