// Package session implements online tuning sessions with safe exploration
// — the subsystem behind the /v1/tuning/sessions API (DESIGN.md §11).
//
// The adaptive-update loop only *retrains* on whatever feedback arrives;
// it never deliberately explores, so the model cannot escape a locally
// good configuration without a lucky workload shift. A tuning session
// closes that gap for one (app, datasize, cluster): the server proposes
// candidate configurations perturbed around the best known config, the
// client executes them and reports measured times, and winners are
// promoted into the model through the existing feedback → adaptive-update
// path.
//
// Exploration is *safe* by construction:
//
//   - Trial 0 always measures the baseline (the static recommendation), so
//     the safety reference is a measured number, not a model guess.
//   - Every explored candidate is screened by the current model: a
//     proposal whose predicted time exceeds a strategy-scaled fraction of
//     SafetyBound × the baseline is never issued, and neither is anything
//     infeasible or predicted to fail.
//   - Exploration anchors on the best *measured* config, so a mistaken
//     trial cannot drag later proposals with it; a measured violation of
//     the bound is counted and exploration simply continues from the best.
//   - The step size is a measured trust region: every session starts at a
//     small radius, earns larger steps only from trials measured at or
//     below the baseline, and halves its radius on any failed or
//     near-bound trial. The strategy's radius is a ceiling, not the step —
//     the knob cliffs that blow the bound are exactly what the screening
//     model mispredicts, so only measurements govern the step size.
//   - Each session has a hard trial budget; the budget is spent per trial
//     (re-requesting an unreported proposal is idempotent) and accounting
//     is monotone.
//
// The Store persists sessions through the same durability seam as the
// serving model: every mutation is appended to a write-ahead log
// (internal/wal) and the full table is snapshotted atomically, so sessions
// survive a crash-restart (DESIGN.md §9).
package session

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"lite/internal/sparksim"
	"lite/pkg/api"
)

// Strategy names an exploration aggressiveness preset.
type Strategy string

// The three strategies. Conservative barely leaves the baseline's
// neighborhood and only proposes predicted improvements; aggressive roams
// a third of each knob's range and accepts predicted slowdowns up to the
// safety bound's screening margin.
const (
	Conservative Strategy = "conservative"
	Moderate     Strategy = "moderate"
	Aggressive   Strategy = "aggressive"
)

// Params are the knobs a strategy sets.
type Params struct {
	// Radius is the per-knob perturbation radius as a fraction of the
	// knob's legal range, centered on the anchor (best known) config.
	Radius float64
	// MaxTrials is the default trial budget.
	MaxTrials int
	// Candidates is how many perturbations are generated and screened per
	// proposal.
	Candidates int
	// ScreenFrac scales the screening threshold: a candidate is proposed
	// only if its predicted time ≤ ScreenFrac × SafetyBound × baseline.
	// Values well below 1 leave headroom for model error, which is what
	// keeps *measured* trials inside the bound.
	ScreenFrac float64
}

// ParamsFor returns a strategy's preset. Unknown strategies report ok =
// false.
func ParamsFor(s Strategy) (Params, bool) {
	switch s {
	case Conservative:
		return Params{Radius: 0.06, MaxTrials: 8, Candidates: 16, ScreenFrac: 0.67}, true
	case Moderate:
		return Params{Radius: 0.15, MaxTrials: 16, Candidates: 24, ScreenFrac: 0.75}, true
	case Aggressive:
		return Params{Radius: 0.30, MaxTrials: 32, Candidates: 32, ScreenFrac: 0.85}, true
	}
	return Params{}, false
}

// DefaultSafetyBound is the maximum tolerated slowdown versus the measured
// baseline when the caller does not set one: no trial should run more than
// 50% slower than the configuration the session started from.
const DefaultSafetyBound = 1.5

// Trust-region constants. The strategy's Radius is a *ceiling*, not the
// working step size: every session starts at TrustStart (empirically safe
// for every workload family), earns larger steps with measured-safe
// trials, and loses them the moment a measurement drifts toward the
// bound. Model screening alone cannot prevent violations — the knob
// cliffs that blow the bound are exactly the ones the model mispredicts —
// so the radius is governed by measurements, which cannot lie.
const (
	// TrustStart is the initial exploration radius (capped by the
	// strategy's Radius when that is smaller).
	TrustStart = 0.06
	// TrustFloor is the smallest the radius shrinks to.
	TrustFloor = 0.02
	// TrustGrow multiplies the radius after a trial measured at or below
	// the baseline (the step was safe AND useful).
	TrustGrow = 1.25
	// TrustShrink multiplies the radius after a failed trial or one whose
	// slowdown crossed TrustWarnFrac of the way from 1 to the bound.
	TrustShrink = 0.5
	// TrustWarnFrac positions the early-warning threshold: with bound B,
	// shrink once measured/baseline exceeds 1 + TrustWarnFrac×(B-1) —
	// halfway to the bound by default, so the radius backs off before a
	// violation, not after.
	TrustWarnFrac = 0.5
)

// Typed failures; the HTTP layer maps each to a stable api.Code*.
var (
	ErrNotFound             = errors.New("session: not found")
	ErrClosed               = errors.New("session: closed")
	ErrBudgetExhausted      = errors.New("session: trial budget exhausted")
	ErrTrialAlreadyReported = errors.New("session: trial already reported")
	ErrUnknownTrial         = errors.New("session: unknown trial")
)

// Scorer is the model view a proposal pass needs: a predicted execution
// time for a candidate and a feasibility check for the session's
// environment. internal/serve backs it with the live snapshot's NECS
// scorer; experiments back it with a plain tuner.
type Scorer interface {
	// Score returns the predicted execution seconds (NaN when the model
	// cannot score the candidate).
	Score(cfg sparksim.Config) float64
	// Feasible reports whether the candidate can be allocated at all.
	Feasible(cfg sparksim.Config) bool
}

// Trial is one proposed (and possibly reported) trial. It is also the
// persisted form: propose events and sessions.json carry it as is.
type Trial struct {
	Trial  int             `json:"trial"`
	Config sparksim.Config `json:"config"`
	// Predicted is the model's estimate; nil when it had none. The store
	// never writes through an estimate, so the baseline trial shares the
	// session's.
	Predicted *float64 `json:"predicted,omitempty"`
	Source    string   `json:"source"`
	Reported  bool     `json:"reported,omitempty"`
	Seconds   float64  `json:"seconds,omitempty"`
	Failed    bool     `json:"failed,omitempty"`
	Improved  bool     `json:"improved,omitempty"`
	Promoted  bool     `json:"promoted,omitempty"`
}

// Proposal sources.
const (
	SourceBaseline = "baseline"
	SourceExplore  = "explore"
	SourceBest     = "best"
)

// Session is the mutable state of one tuning session, and its persisted
// form: create events and sessions.json carry it as is. It is owned by a
// Store; callers only ever see copies (views).
type Session struct {
	ID       string   `json:"id"`
	App      string   `json:"app"`
	SizeMB   float64  `json:"size_mb"`
	Cluster  string   `json:"cluster"`
	Strategy Strategy `json:"strategy"`
	Params   Params   `json:"params"`

	SafetyBound float64 `json:"safety_bound"`
	MaxTrials   int     `json:"max_trials"`

	// Radius is the current trust-region step size (fraction of each
	// knob's range). It starts at min(TrustStart, Params.Radius) and is
	// adapted by applyReport from measured outcomes only.
	Radius float64 `json:"radius,omitempty"`

	BaselineConfig    sparksim.Config `json:"baseline_config"`
	BaselinePredicted *float64        `json:"baseline_predicted,omitempty"` // nil when the static tier had no estimate
	BaselineSeconds   float64         `json:"baseline_seconds,omitempty"`   // 0 until trial 0 reports

	BestConfig  sparksim.Config `json:"best_config"`
	BestSeconds float64         `json:"best_seconds,omitempty"`
	BestTrial   int             `json:"best_trial,omitempty"`
	HasBest     bool            `json:"has_best,omitempty"`

	Trials     []Trial `json:"trials,omitempty"`
	Violations int     `json:"violations,omitempty"`
	Promotions int     `json:"promotions,omitempty"`

	Closed    bool      `json:"closed,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	ClosedAt  time.Time `json:"closed_at,omitempty"`
}

// estimate stores a model estimate: nil when it is NaN or infinite, which
// is how the model says it has none.
func estimate(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

// clone copies an estimate for a view, so callers cannot write into the
// store through it.
func clone(p *float64) *float64 {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// trialsUsed is the budget spent: every issued trial counts, reported or
// not.
func (s *Session) trialsUsed() int { return len(s.Trials) }

// pending returns the newest unreported trial, if any — the idempotent
// re-proposal target.
func (s *Session) pending() *Trial {
	if n := len(s.Trials); n > 0 && !s.Trials[n-1].Reported {
		return &s.Trials[n-1]
	}
	return nil
}

// anchor is the config exploration perturbs around: the best measured
// config once one exists, the baseline before that.
func (s *Session) anchor() sparksim.Config {
	if s.HasBest {
		return s.BestConfig
	}
	return s.BaselineConfig
}

// safetyRef is the reference time the bound multiplies: the measured
// baseline once trial 0 reported, the model's baseline estimate before
// that (and +Inf when even that is unknown — screening then only filters
// failures).
func (s *Session) safetyRef() float64 {
	if s.BaselineSeconds > 0 {
		return s.BaselineSeconds
	}
	if p := s.BaselinePredicted; p != nil && *p > 0 {
		return *p
	}
	return math.Inf(1)
}

// propose picks the next trial's configuration. Trial 0 is always the
// baseline. Later trials generate Params.Candidates perturbations of the
// anchor within the current trust radius, drop anything already tried, infeasible,
// non-finite, predicted to fail, or predicted slower than
// ScreenFrac × SafetyBound × safetyRef, and take the best predicted
// survivor. When nothing survives, the radius is halved once and the pass
// retried; if still nothing, the anchor itself is re-proposed (source
// "best") — a safe no-op trial rather than an unsafe guess.
func (s *Session) propose(sc Scorer, rng *rand.Rand) Trial {
	if len(s.Trials) == 0 {
		return Trial{
			Trial:     0,
			Config:    s.BaselineConfig,
			Predicted: s.BaselinePredicted,
			Source:    SourceBaseline,
		}
	}
	tried := make(map[sparksim.Config]bool, len(s.Trials))
	for i := range s.Trials {
		tried[s.Trials[i].Config] = true
	}
	limit := s.Params.ScreenFrac * s.SafetyBound * s.safetyRef()
	for _, radius := range []float64{s.Radius, s.Radius / 2} {
		best, bestPred, found := sparksim.Config{}, math.Inf(1), false
		for i := 0; i < s.Params.Candidates; i++ {
			cand := perturb(s.anchor(), radius, rng)
			if tried[cand] || !sc.Feasible(cand) {
				continue
			}
			p := sc.Score(cand)
			if math.IsNaN(p) || math.IsInf(p, 0) || p >= sparksim.FailCap || p > limit {
				continue
			}
			if p < bestPred {
				best, bestPred, found = cand, p, true
			}
		}
		if found {
			return Trial{
				Trial:     len(s.Trials),
				Config:    best,
				Predicted: &bestPred,
				Source:    SourceExplore,
			}
		}
	}
	anchor := s.anchor()
	return Trial{
		Trial:     len(s.Trials),
		Config:    anchor,
		Predicted: estimate(sc.Score(anchor)),
		Source:    SourceBest,
	}
}

// perturb draws one candidate around anchor: each knob moves uniformly
// within ±radius × its range, then the whole config is clamped back into
// the legal domain (integer and boolean knobs round).
func perturb(anchor sparksim.Config, radius float64, rng *rand.Rand) sparksim.Config {
	c := anchor
	for i, k := range sparksim.Knobs {
		span := (k.Max - k.Min) * radius
		c[i] += (rng.Float64()*2 - 1) * span
	}
	return c.Clamp()
}

// ID format: <app>.<sizeMB>.<cluster>.<nonce>. The identifying fields are
// embedded so a fleet router can derive the consistent-hash routing key
// from the ID alone — every later call on the session lands on the shard
// that owns its (app, datasize, cluster) arc without a lookup table.

// FormatID builds a session ID.
func FormatID(app string, sizeMB float64, cluster string, nonce uint64) string {
	return fmt.Sprintf("%s.%s.%s.%08x", app, strconv.FormatFloat(sizeMB, 'g', -1, 64), cluster, nonce)
}

// ParseID recovers (app, sizeMB, cluster) from a session ID. The size may
// itself contain a dot, so parsing is anchored on the ends: the last
// segment is the nonce, the second-to-last the cluster, the first the app
// (app names must not contain dots — Create enforces it), and whatever
// remains in between is the size.
func ParseID(id string) (app string, sizeMB float64, cluster string, err error) {
	parts := strings.Split(id, ".")
	if len(parts) < 4 {
		return "", 0, "", fmt.Errorf("session: malformed id %q", id)
	}
	app = parts[0]
	cluster = parts[len(parts)-2]
	size := strings.Join(parts[1:len(parts)-2], ".")
	sizeMB, err = strconv.ParseFloat(size, 64)
	if err != nil {
		return "", 0, "", fmt.Errorf("session: malformed size in id %q", id)
	}
	return app, sizeMB, cluster, nil
}

// View renders a session as its API resource representation. The copy is
// deep: callers can hold it across store mutations.
func (s *Session) View(includeTrials bool) api.Session {
	v := api.Session{
		ID:                       s.ID,
		App:                      s.App,
		SizeMB:                   s.SizeMB,
		Cluster:                  s.Cluster,
		Strategy:                 string(s.Strategy),
		State:                    "active",
		SafetyBound:              s.SafetyBound,
		MaxTrials:                s.MaxTrials,
		TrialsUsed:               s.trialsUsed(),
		Violations:               s.Violations,
		Promotions:               s.Promotions,
		BaselineConfig:           ConfigMap(s.BaselineConfig),
		BaselinePredictedSeconds: clone(s.BaselinePredicted),
		BaselineSeconds:          s.BaselineSeconds,
		CreatedAt:                s.CreatedAt.UTC().Format(time.RFC3339Nano),
	}
	if s.Closed {
		v.State = "closed"
		v.ClosedAt = s.ClosedAt.UTC().Format(time.RFC3339Nano)
	}
	if s.HasBest {
		v.BestConfig = ConfigMap(s.BestConfig)
		v.BestSeconds = s.BestSeconds
		v.BestTrial = s.BestTrial
	}
	if includeTrials {
		v.Trials = make([]api.SessionTrial, 0, len(s.Trials))
		for i := range s.Trials {
			v.Trials = append(v.Trials, s.Trials[i].view())
		}
	}
	return v
}

func (t *Trial) view() api.SessionTrial {
	return api.SessionTrial{
		Trial:            t.Trial,
		Config:           ConfigMap(t.Config),
		PredictedSeconds: clone(t.Predicted),
		Source:           t.Source,
		Reported:         t.Reported,
		Seconds:          t.Seconds,
		Failed:           t.Failed,
		Improved:         t.Improved,
		Promoted:         t.Promoted,
	}
}

// ConfigMap renders a Config as the knob-name → value map the wire types
// use.
func ConfigMap(cfg sparksim.Config) map[string]float64 {
	out := make(map[string]float64, sparksim.NumKnobs)
	for i, k := range sparksim.Knobs {
		out[k.Name] = cfg[i]
	}
	return out
}
