package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"

	"lite/internal/feature"
	"lite/internal/nn"
)

// modelFile is the on-disk representation of a trained NECS model: the
// hyperparameters, both vocabularies, and every parameter tensor in
// Params() order (which is deterministic for a given configuration).
type modelFile struct {
	Format  string         `json:"format"`
	Config  NECSConfig     `json:"config"`
	Vocab   map[string]int `json:"vocab"`
	OpVocab map[string]int `json:"op_vocab"`
	UseOOV  bool           `json:"use_oov"`
	Shapes  [][2]int       `json:"shapes"`
	Params  [][]float64    `json:"params"`
}

const modelFormat = "lite-necs-v1"

// Save serializes the model (weights + vocabularies + hyperparameters) as
// JSON. The encoder's caches are not persisted; they rebuild lazily.
func (m *NECS) Save(w io.Writer) error {
	buf, err := m.appendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// appendJSON appends the bytes json.Marshal(&modelFile{…}) writes for m,
// taking the vocabularies and the CNN and GCN weights from the Encoder's
// memo (savedEncoder) and encoding only the config, the shapes and the
// tower.
func (m *NECS) appendJSON(buf []byte) ([]byte, error) {
	cfg, err := json.Marshal(m.Cfg)
	if err != nil {
		return nil, err
	}
	var shapes [][2]int
	for _, p := range m.Params() {
		shapes = append(shapes, [2]int{p.Value.Rows, p.Value.Cols})
	}
	shapesJSON, err := json.Marshal(shapes)
	if err != nil {
		return nil, err
	}
	vocabs, encoders, err := m.Encoder.saved.get(m)
	if err != nil {
		return nil, err
	}
	buf = append(buf, `{"format":"`+modelFormat+`","config":`...)
	buf = append(buf, cfg...)
	buf = append(buf, vocabs...)
	buf = append(buf, `,"use_oov":`...)
	buf = strconv.AppendBool(buf, m.Encoder.Vocab.UseOOV)
	buf = append(buf, `,"shapes":`...)
	buf = append(buf, shapesJSON...)
	buf = append(buf, `,"params":[`...)
	buf = append(buf, encoders...)
	for _, p := range m.Tower.Params() {
		b, err := json.Marshal(p.Value.Data)
		if err != nil {
			return nil, err
		}
		buf = append(append(buf, ','), b...)
	}
	return append(buf, "]}"...), nil
}

// savedEncoder memoizes, per Encoder, the snapshot bytes of what every
// generation retrained from one model inherits unchanged (Adaptive Model
// Update trains the tower alone): the vocabularies, which depend only on
// the Encoder, and the CNN and GCN weights, which depend on one setting
// of them and are keyed by its fingerprint. UseOOV, the config, the shapes
// and the tower are encoded on every save. Safe for concurrent use.
type savedEncoder struct {
	mu sync.Mutex
	// vocabs is `,"vocab":{…},"op_vocab":{…}`, encoded on first use.
	vocabs []byte
	// weights is the CNN and GCN tensors' JSON arrays, comma-separated,
	// under the encoder weights whose fingerprint is fp.
	weights []byte
	fp      uint64
}

// get returns the encoded vocabularies and m's encoded CNN and GCN
// weights, encoding what the memo lacks. The fingerprint is taken from
// the weights here, not from m.fp: a snapshot is the durable copy, and
// hashing the encoder weights costs a few microseconds of a save.
func (s *savedEncoder) get(m *NECS) (vocabs, weights []byte, err error) {
	fp := encoderFingerprint(m)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vocabs == nil {
		vocab, err := json.Marshal(m.Encoder.Vocab.Export())
		if err != nil {
			return nil, nil, err
		}
		opVocab, err := json.Marshal(m.Encoder.OpVocab.Export())
		if err != nil {
			return nil, nil, err
		}
		b := append([]byte(`,"vocab":`), vocab...)
		b = append(b, `,"op_vocab":`...)
		s.vocabs = append(b, opVocab...)
	}
	if s.weights == nil || s.fp != fp {
		var b []byte
		for i, p := range append(m.Code.Params(), m.DAG.Params()...) {
			arr, err := json.Marshal(p.Value.Data)
			if err != nil {
				return nil, nil, err
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, arr...)
		}
		s.weights, s.fp = b, fp
	}
	return s.vocabs, s.weights, nil
}

// LoadNECS reconstructs a model previously written by Save. The file is
// checked against its own config before the model is built (check), so
// a malformed one returns an error instead of panicking, and the model
// allocates no more values than the file holds.
func LoadNECS(r io.Reader) (*NECS, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if mf.Format != modelFormat {
		return nil, fmt.Errorf("core: unsupported model format %q", mf.Format)
	}
	if err := mf.check(); err != nil {
		return nil, err
	}
	enc := NewEncoderFromVocabs(
		feature.NewVocabFromMap(mf.Vocab, mf.UseOOV),
		feature.NewOpVocabFromMap(mf.OpVocab, mf.UseOOV),
		mf.Config,
	)
	m := NewNECS(enc, mf.Config, rand.New(rand.NewSource(0)))
	for i, p := range m.Params() {
		copy(p.Value.Data, mf.Params[i])
	}
	return m, nil
}

// maxTokenLen bounds a loaded model's TokenLen, about 40× the default 96:
// the encoder allocates that many token ids per distinct stage code.
const maxTokenLen = 4096

// check validates a decoded model file before anything is sized by it:
// TokenLen is at most maxTokenLen, every kernel fits the padded token
// sequence, every vocabulary id names a row of its table, and the file
// holds, in Params order, one tensor of each shape NewNECS builds from its
// config, each shape positive, with that many values.
func (mf *modelFile) check() error {
	c := mf.Config
	// TowerWidths halves down to TowerMin, which must be positive for it
	// to stop; the count below divides by FiltersPerKernel.
	if c.FiltersPerKernel < 1 || c.TowerMin < 1 || len(c.GCNHidden) == 0 {
		return fmt.Errorf("core: model config %+v builds no model", c)
	}
	if c.TokenLen > maxTokenLen {
		return fmt.Errorf("core: model TokenLen %d exceeds %d", c.TokenLen, maxTokenLen)
	}
	for _, k := range c.Kernels {
		if k > c.TokenLen {
			return fmt.Errorf("core: model kernel width %d exceeds TokenLen %d", k, c.TokenLen)
		}
	}
	for _, v := range []map[string]int{mf.Vocab, mf.OpVocab} {
		for tok, id := range v {
			if id < 0 || id > len(v) {
				return fmt.Errorf("core: model vocabulary id %d of %q outside [0, %d]", id, tok, len(v))
			}
		}
	}
	// The CNN's embedding, filter banks, bank biases and projection, the
	// GCN layers, the tower. A negative CodeDim or GCN width fails its
	// own shape before the tower's input width, which sums them, is read.
	tower := nn.TowerWidths(feature.DenseWidth+c.CodeDim+c.GCNHidden[len(c.GCNHidden)-1], c.TowerFirst, c.TowerMin)
	banks, n := len(c.Kernels), len(mf.Params)
	if banks > n/c.FiltersPerKernel || len(mf.Shapes) != n ||
		n != 1+banks*c.FiltersPerKernel+banks+2+len(c.GCNHidden)+2*(len(tower)-1) {
		return fmt.Errorf("core: model file has %d parameter tensors and %d shapes, not the count its config builds", n, len(mf.Shapes))
	}
	want := [][2]int{{len(mf.Vocab) + 1, c.EmbDim}}
	for _, k := range c.Kernels {
		for range c.FiltersPerKernel {
			want = append(want, [2]int{c.EmbDim, k})
		}
	}
	for range c.Kernels {
		want = append(want, [2]int{1, c.FiltersPerKernel})
	}
	want = append(want, [2]int{banks * c.FiltersPerKernel, c.CodeDim}, [2]int{1, c.CodeDim})
	gcn := append([]int{len(mf.OpVocab) + 1}, c.GCNHidden...)
	for i := 1; i < len(gcn); i++ {
		want = append(want, [2]int{gcn[i-1], gcn[i]})
	}
	for i := 1; i < len(tower); i++ {
		want = append(want, [2]int{tower[i-1], tower[i]}, [2]int{1, tower[i]})
	}
	for i, s := range want {
		if v := len(mf.Params[i]); s[0] < 1 || s[1] < 1 || mf.Shapes[i] != s || v%s[0] != 0 || v/s[0] != s[1] {
			return fmt.Errorf("core: parameter %d is %dx%d with %d values in the file; its config builds %dx%d",
				i, mf.Shapes[i][0], mf.Shapes[i][1], v, s[0], s[1])
		}
	}
	return nil
}

// tunerFile is the on-disk representation of a full LITE tuner: the NECS
// model plus the Adaptive Candidate Generation state.
type tunerFile struct {
	Format        string          `json:"format"`
	Model         json.RawMessage `json:"model"`
	ACG           json.RawMessage `json:"acg"`
	NumCandidates int             `json:"num_candidates"`
}

const tunerFormat = "lite-tuner-v1"

// Save serializes the whole tuner (NECS + ACG) as JSON, in one Write.
// The bytes are those of json.NewEncoder(w).Encode(&tunerFile{…}) with the
// encoded model and ACG as its raw fields; the envelope is written here
// directly so those ≈0.75 MB are not re-validated and re-compacted, the
// model's vocabularies and encoder weights come from the Encoder's memo
// (savedEncoder), and the ACG's forests from its encode-once cache
// (encodedForests).
func (t *Tuner) Save(w io.Writer) error {
	size := 1024 // the envelope and the ACG's small fields
	for _, p := range t.Model.Params() {
		size += 24 * p.Value.Size() // a weight's shortest decimal and its comma
	}
	if t.ACG != nil {
		forests, err := t.ACG.encodedForests()
		if err != nil {
			return err
		}
		size += len(forests)
	}
	buf := append(make([]byte, 0, size), `{"format":"`+tunerFormat+`","model":`...)
	buf, err := t.Model.appendJSON(buf)
	if err != nil {
		return err
	}
	buf = append(buf, `,"acg":`...)
	if t.ACG == nil {
		buf = append(buf, "null"...)
	} else if buf, err = t.ACG.appendJSON(buf); err != nil {
		return err
	}
	buf = append(buf, `,"num_candidates":`...)
	buf = strconv.AppendInt(buf, int64(t.NumCandidates), 10)
	_, err = w.Write(append(buf, "}\n"...))
	return err
}

// LoadTuner reconstructs a tuner previously written by Save. The returned
// tuner is ready to Recommend; its RNG is seeded with the given seed.
// Snapshots from before the update_batch field was retired still load:
// encoding/json ignores the unknown key.
func LoadTuner(r io.Reader, seed int64) (*Tuner, error) {
	var tf tunerFile
	if err := json.NewDecoder(r).Decode(&tf); err != nil {
		return nil, fmt.Errorf("core: decoding tuner: %w", err)
	}
	if tf.Format != tunerFormat {
		return nil, fmt.Errorf("core: unsupported tuner format %q", tf.Format)
	}
	if tf.NumCandidates < 1 {
		return nil, fmt.Errorf("core: tuner num_candidates is %d, want at least 1", tf.NumCandidates)
	}
	model, err := LoadNECS(bytes.NewReader(tf.Model))
	if err != nil {
		return nil, err
	}
	acg := &CandidateGenerator{}
	if err := json.Unmarshal(tf.ACG, acg); err != nil {
		return nil, fmt.Errorf("core: decoding ACG: %w", err)
	}
	return &Tuner{
		Model:         model,
		ACG:           acg,
		NumCandidates: tf.NumCandidates,
		AMU:           DefaultAMUConfig(),
		rng:           rand.New(rand.NewSource(seed)),
	}, nil
}

// NewEncoderFromVocabs builds an encoder around existing vocabularies
// (used when loading a persisted model; no training corpus needed).
func NewEncoderFromVocabs(vocab *feature.Vocab, opVocab *feature.OpVocab, cfg NECSConfig) *Encoder {
	e := &Encoder{
		Vocab:    vocab,
		OpVocab:  opVocab,
		cfg:      cfg,
		tokCache: map[string][]int{},
		dagCache: map[string]*dagEnc{},
	}
	e.dagByKey = func(ops []string, edges [][2]int) string {
		key := ""
		for _, o := range ops {
			key += o + "|"
		}
		for _, ed := range edges {
			key += string(rune('0'+ed[0])) + string(rune('0'+ed[1]))
		}
		return key
	}
	return e
}
