package session

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"lite/internal/sparksim"
	"lite/internal/wal"
)

// stubScorer is a deterministic model stand-in.
type stubScorer struct {
	score    func(sparksim.Config) float64
	feasible func(sparksim.Config) bool
}

func (s stubScorer) Score(cfg sparksim.Config) float64 {
	if s.score == nil {
		return 50
	}
	return s.score(cfg)
}

func (s stubScorer) Feasible(cfg sparksim.Config) bool {
	if s.feasible == nil {
		return true
	}
	return s.feasible(cfg)
}

// testStore opens an in-memory store with a fixed seed and a ticking fake
// clock, so IDs, proposals and timestamps are reproducible.
func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Now == nil {
		base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
		n := 0
		opts.Now = func() time.Time {
			n++
			return base.Add(time.Duration(n) * time.Second)
		}
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestIDRoundTrip(t *testing.T) {
	cases := []struct {
		app     string
		sizeMB  float64
		cluster string
	}{
		{"WordCount", 512, "C"},
		{"PageRank", 0.5, "A"},          // dotted size must survive
		{"TeraSort", 1536.25, "edge-B"}, // dashes in cluster names
	}
	for _, c := range cases {
		id := FormatID(c.app, c.sizeMB, c.cluster, 0xdeadbeef)
		app, size, cluster, err := ParseID(id)
		if err != nil {
			t.Fatalf("ParseID(%q): %v", id, err)
		}
		if app != c.app || size != c.sizeMB || cluster != c.cluster {
			t.Fatalf("ParseID(%q) = (%q, %g, %q), want (%q, %g, %q)",
				id, app, size, cluster, c.app, c.sizeMB, c.cluster)
		}
	}
	for _, bad := range []string{"", "a.b.c", "app.notasize.C.00000000", "x"} {
		if _, _, _, err := ParseID(bad); err == nil {
			t.Fatalf("ParseID(%q) succeeded, want error", bad)
		}
	}
}

func TestCreateValidation(t *testing.T) {
	st := testStore(t, Options{})
	base := sparksim.DefaultConfig()

	if _, err := st.Create("A", 100, "C", "yolo", 0, 0, base, 100); err == nil || !IsInvalid(err) {
		t.Fatalf("unknown strategy: err = %v, want invalid", err)
	}
	if _, err := st.Create("A", 100, "C", Moderate, -1, 0, base, 100); err == nil || !IsInvalid(err) {
		t.Fatalf("negative max_trials: err = %v, want invalid", err)
	}
	if _, err := st.Create("A", 100, "C", Moderate, 0, 0.9, base, 100); err == nil || !IsInvalid(err) {
		t.Fatalf("bound <= 1: err = %v, want invalid", err)
	}

	// Zero values pick up the defaults: strategy moderate, preset trial
	// budget, DefaultSafetyBound.
	v, err := st.Create("A", 100, "C", "", 0, 0, base, 100)
	if err != nil {
		t.Fatalf("Create defaults: %v", err)
	}
	params, _ := ParamsFor(Moderate)
	if v.Strategy != string(Moderate) || v.MaxTrials != params.MaxTrials || v.SafetyBound != DefaultSafetyBound {
		t.Fatalf("defaults = (%s, %d, %g), want (moderate, %d, %g)",
			v.Strategy, v.MaxTrials, v.SafetyBound, params.MaxTrials, DefaultSafetyBound)
	}
	if app, size, cluster, err := ParseID(v.ID); err != nil || app != "A" || size != 100 || cluster != "C" {
		t.Fatalf("ID %q does not embed routing fields: (%q, %g, %q, %v)", v.ID, app, size, cluster, err)
	}
}

func TestProposalLifecycleAndBudget(t *testing.T) {
	st := testStore(t, Options{})
	base := sparksim.DefaultConfig()
	v, err := st.Create("A", 100, "C", Moderate, 3, 1.5, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc := stubScorer{}

	// Trial 0 is always the measured baseline.
	p0, err := st.NextProposal(v.ID, sc)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Trial != 0 || p0.Source != SourceBaseline || p0.Config != base {
		t.Fatalf("trial 0 = (%d, %s), want baseline at index 0", p0.Trial, p0.Source)
	}
	if p0.AbortAfterSeconds != 0 {
		t.Fatalf("baseline AbortAfterSeconds = %g, want 0 (nothing measured yet)", p0.AbortAfterSeconds)
	}

	// Re-requesting an unreported proposal is idempotent: same trial, no
	// budget spent.
	p0b, err := st.NextProposal(v.ID, sc)
	if err != nil {
		t.Fatal(err)
	}
	if p0b.Trial != 0 || p0b.Config != p0.Config || p0b.BudgetRemaining != p0.BudgetRemaining {
		t.Fatalf("re-proposal spent budget: %+v vs %+v", p0b, p0)
	}

	if _, err := st.Report(v.ID, 0, 100, false); err != nil {
		t.Fatal(err)
	}

	// Budget accounting is monotone: remaining decreases by exactly one per
	// issued trial, and the guard-rail is bound × the measured baseline.
	remaining := p0.BudgetRemaining
	for trial := 1; trial < 3; trial++ {
		p, err := st.NextProposal(v.ID, sc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if p.Trial != trial {
			t.Fatalf("trial index = %d, want %d", p.Trial, trial)
		}
		if p.BudgetRemaining != remaining-1 {
			t.Fatalf("budget after trial %d = %d, want %d", trial, p.BudgetRemaining, remaining-1)
		}
		remaining = p.BudgetRemaining
		if want := 1.5 * 100; p.AbortAfterSeconds != want {
			t.Fatalf("AbortAfterSeconds = %g, want %g", p.AbortAfterSeconds, want)
		}
		if _, err := st.Report(v.ID, p.Trial, 99, false); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := st.NextProposal(v.ID, sc); err != ErrBudgetExhausted {
		t.Fatalf("past budget: err = %v, want ErrBudgetExhausted", err)
	}
}

func TestScreeningFallsBackToAnchor(t *testing.T) {
	st := testStore(t, Options{})
	base := sparksim.DefaultConfig()
	v, err := st.Create("A", 100, "C", Aggressive, 4, 1.5, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Every candidate except the anchor itself is predicted catastrophic, so
	// screening must reject them all and re-propose the anchor (source
	// "best") instead of issuing an unsafe guess.
	sc := stubScorer{score: func(cfg sparksim.Config) float64 {
		if cfg == base {
			return 100
		}
		return 1e9
	}}
	if _, err := st.NextProposal(v.ID, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Report(v.ID, 0, 100, false); err != nil {
		t.Fatal(err)
	}
	p, err := st.NextProposal(v.ID, sc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != SourceBest || p.Config != base {
		t.Fatalf("screened-out pass proposed (%s, %v), want the anchor as source best", p.Source, p.Config)
	}
}

func TestViolationSemantics(t *testing.T) {
	st := testStore(t, Options{})
	base := sparksim.DefaultConfig()
	v, err := st.Create("A", 100, "C", Moderate, 8, 1.5, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc := stubScorer{}
	mustPropose := func() Proposal {
		t.Helper()
		p, err := st.NextProposal(v.ID, sc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	mustPropose()
	if _, err := st.Report(v.ID, 0, 100, false); err != nil {
		t.Fatal(err)
	}

	// Strictly past bound × baseline: a violation.
	p := mustPropose()
	out, err := st.Report(v.ID, p.Trial, 151, false)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Violation {
		t.Fatal("151s vs bound 150s not flagged as violation")
	}

	// Exactly at the bound — what an abort-capped report looks like — is a
	// bound-hit, not a violation.
	p = mustPropose()
	out, err = st.Report(v.ID, p.Trial, 150, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation {
		t.Fatal("abort-capped report (exactly at the bound) counted as violation")
	}

	// A failure below the bound is recorded but never a violation.
	p = mustPropose()
	out, err = st.Report(v.ID, p.Trial, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation {
		t.Fatal("fast failure counted as violation")
	}

	sess, err := st.Get(v.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Violations != 1 {
		t.Fatalf("Violations = %d, want exactly the one overshoot", sess.Violations)
	}
}

func TestReportValidation(t *testing.T) {
	st := testStore(t, Options{})
	base := sparksim.DefaultConfig()
	v, err := st.Create("A", 100, "C", Moderate, 4, 1.5, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc := stubScorer{}

	if _, err := st.Report("nope", 0, 1, false); err != ErrNotFound {
		t.Fatalf("unknown id: %v, want ErrNotFound", err)
	}
	if _, err := st.Report("nope", 0, -1, false); err != ErrNotFound {
		t.Fatalf("unknown id with bad seconds: %v, want ErrNotFound before the argument check", err)
	}
	if _, err := st.Report(v.ID, 0, 1, false); err != ErrUnknownTrial {
		t.Fatalf("unissued trial: %v, want ErrUnknownTrial", err)
	}
	if _, err := st.NextProposal(v.ID, sc); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := st.Report(v.ID, 0, bad, false); err == nil || !IsInvalid(err) {
			t.Fatalf("seconds=%v: err = %v, want invalid", bad, err)
		}
	}
	if _, err := st.Report(v.ID, 0, 100, false); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Report(v.ID, 0, 100, false); err != ErrTrialAlreadyReported {
		t.Fatalf("double report: %v, want ErrTrialAlreadyReported", err)
	}

	// Close is idempotent and freezes the session.
	if _, err := st.CloseSession(v.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CloseSession(v.ID); err != nil {
		t.Fatalf("second close: %v, want idempotent success", err)
	}
	if _, err := st.NextProposal(v.ID, sc); err != ErrClosed {
		t.Fatalf("proposal after close: %v, want ErrClosed", err)
	}
	if _, err := st.Report(v.ID, 0, 1, false); err != ErrClosed {
		t.Fatalf("report after close: %v, want ErrClosed", err)
	}
	if _, err := st.Get(v.ID, true); err != nil {
		t.Fatalf("closed session must stay readable: %v", err)
	}
}

func TestTrustRegionAdaptation(t *testing.T) {
	st := testStore(t, Options{})
	base := sparksim.DefaultConfig()
	v, err := st.Create("A", 100, "C", Moderate, 32, 1.5, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc := stubScorer{}
	sess := st.sessions[v.ID]
	params, _ := ParamsFor(Moderate)

	if sess.Radius != math.Min(TrustStart, params.Radius) {
		t.Fatalf("initial radius = %g, want min(TrustStart, strategy) = %g",
			sess.Radius, math.Min(TrustStart, params.Radius))
	}

	report := func(seconds float64, failed bool) {
		t.Helper()
		p, err := st.NextProposal(v.ID, sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Report(v.ID, p.Trial, seconds, failed); err != nil {
			t.Fatal(err)
		}
	}

	report(100, false) // baseline: no trust-region update
	if sess.Radius != TrustStart {
		t.Fatalf("radius moved on baseline report: %g", sess.Radius)
	}

	// A trial at or below the baseline grows the step.
	report(90, false)
	if want := TrustStart * TrustGrow; sess.Radius != want {
		t.Fatalf("radius after safe trial = %g, want %g", sess.Radius, want)
	}

	// A failure halves it.
	report(50, true)
	if want := TrustStart * TrustGrow * TrustShrink; sess.Radius != want {
		t.Fatalf("radius after failed trial = %g, want %g", sess.Radius, want)
	}

	// Crossing the early-warning threshold (halfway to the bound: 125s)
	// also shrinks, down to the floor at worst.
	for i := 0; i < 8; i++ {
		report(130, false)
	}
	if sess.Radius != TrustFloor {
		t.Fatalf("radius after repeated near-bound trials = %g, want floor %g", sess.Radius, TrustFloor)
	}

	// Growth is capped by the strategy ceiling.
	for i := 0; i < 20; i++ {
		report(80-float64(i), false) // strictly improving, always <= baseline
	}
	if sess.Radius != params.Radius {
		t.Fatalf("radius after sustained wins = %g, want strategy ceiling %g", sess.Radius, params.Radius)
	}
}

func TestPromotionExactlyOnce(t *testing.T) {
	st := testStore(t, Options{})
	base := sparksim.DefaultConfig()
	v, err := st.Create("A", 100, "C", Moderate, 8, 1.5, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc := stubScorer{}
	propose := func() Proposal {
		t.Helper()
		p, err := st.NextProposal(v.ID, sc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	propose()
	out, err := st.Report(v.ID, 0, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Promoted {
		t.Fatal("baseline report promoted")
	}

	// A genuine win promotes exactly once; the double report is rejected
	// before it can promote again.
	p := propose()
	out, err = st.Report(v.ID, p.Trial, 90, false)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Improved || !out.Promoted {
		t.Fatalf("win not promoted: %+v", out)
	}
	if fb := out.Promotion; fb == nil || fb.App != "A" || fb.SizeMB != 100 || fb.Cluster != "C" ||
		!reflect.DeepEqual(fb.Config, ConfigMap(p.Config)) {
		t.Fatalf("promotion = %+v, want the session's key and the trial's config", out.Promotion)
	}
	if _, err := st.Report(v.ID, p.Trial, 90, false); err != ErrTrialAlreadyReported {
		t.Fatalf("double report: %v", err)
	}

	// A non-improving trial does not promote.
	p = propose()
	out, err = st.Report(v.ID, p.Trial, 95, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Improved || out.Promoted || out.Promotion != nil {
		t.Fatalf("non-improving trial promoted: %+v", out)
	}

	sess, err := st.Get(v.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", sess.Promotions)
	}
	promoted := 0
	for _, tr := range sess.Trials {
		if tr.Promoted {
			promoted++
		}
	}
	if promoted != 1 {
		t.Fatalf("%d trials marked promoted, want 1", promoted)
	}
}

func TestFirstSuccessAfterFailedBaselineDoesNotPromote(t *testing.T) {
	st := testStore(t, Options{})
	base := sparksim.DefaultConfig()
	v, err := st.Create("A", 100, "C", Moderate, 8, 1.5, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc := stubScorer{}
	if _, err := st.NextProposal(v.ID, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Report(v.ID, 0, 0, true); err != nil { // baseline itself failed
		t.Fatal(err)
	}
	p, err := st.NextProposal(v.ID, sc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Report(v.ID, p.Trial, 80, false)
	if err != nil {
		t.Fatal(err)
	}
	// First success only seeds the best; it beat nothing measured, so it is
	// not a model-worthy signal.
	if out.Promoted {
		t.Fatal("incidental first success promoted")
	}
}

// TestCrashReplay drives the store through mutations, blocks the final
// snapshot (so only the WAL survives, as after a crash), and verifies the
// reopened store replays to bit-identical API state — including the trust
// radius, so a recovered session continues the same exploration schedule.
func TestCrashReplay(t *testing.T) {
	dir := t.TempDir()
	fs := wal.NewFaultFS(nil)
	clock := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	now := func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	}
	st, err := Open(Options{Dir: dir, FS: fs, Seed: 7, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	st.snapshotEvery = 1 << 20
	base := sparksim.DefaultConfig()
	sc := stubScorer{}

	v1, err := st.Create("A", 100, "C", Moderate, 8, 1.5, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := st.Create("B", 0.5, "edge", Conservative, 4, 2, base, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, seconds := range []float64{100, 90, 151, 85} {
		p, err := st.NextProposal(v1.ID, sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Report(v1.ID, p.Trial, seconds, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.NextProposal(v2.ID, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CloseSession(v2.ID); err != nil {
		t.Fatal(err)
	}

	before1, _ := st.Get(v1.ID, true)
	before2, _ := st.Get(v2.ID, true)
	radius := st.sessions[v1.ID].Radius

	// "Crash": the snapshot rename fails, so Close leaves only the WAL.
	fs.FailRename(true)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fs.Heal()

	re, err := Open(Options{Dir: dir, FS: fs, Seed: 7, Now: now})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.RecoveredSessions != 2 || re.RecoveredEvents == 0 {
		t.Fatalf("recovered (%d sessions, %d events), want 2 sessions from WAL replay",
			re.RecoveredSessions, re.RecoveredEvents)
	}
	after1, err := re.Get(v1.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	after2, err := re.Get(v2.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct{ before, after any }{{before1, after1}, {before2, after2}} {
		b, _ := json.Marshal(pair.before)
		a, _ := json.Marshal(pair.after)
		if string(b) != string(a) {
			t.Fatalf("replayed view differs:\n before: %s\n after:  %s", b, a)
		}
	}
	if got := re.sessions[v1.ID].Radius; got != radius {
		t.Fatalf("replayed trust radius = %g, want %g", got, radius)
	}
	if after1.Violations != 1 {
		t.Fatalf("replayed Violations = %d, want 1", after1.Violations)
	}

	// Replay is idempotent end-to-end: the boot fold wrote a snapshot, and a
	// third open (snapshot + folded WAL) must land on the same state again.
	re.Close()
	re2, err := Open(Options{Dir: dir, FS: fs, Seed: 7, Now: now})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer re2.Close()
	again, err := re2.Get(v1.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(after1)
	g, _ := json.Marshal(again)
	if string(a) != string(g) {
		t.Fatalf("snapshot round-trip differs:\n %s\n %s", a, g)
	}
}

// A loaded session's Params come from its strategy, never from the file:
// a snapshot asking for three million candidates per proposal still
// proposes at the preset's count, and a session of an unknown strategy
// is skipped and logged.
func TestLoadedParamsFollowStrategy(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Create("A", 100, "C", Moderate, 8, 1.5, sparksim.DefaultConfig(), 100)
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.NextProposal(v.ID, stubScorer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Report(v.ID, p.Trial, 100, false); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, snapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Sessions []map[string]any `json:"sessions"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Sessions[0]["params"].(map[string]any)["Candidates"] = 3000000
	bogus := map[string]any{}
	for k, val := range snap.Sessions[0] {
		bogus[k] = val
	}
	bogus["id"], bogus["strategy"] = "bogus", "reckless"
	snap.Sessions = append(snap.Sessions, bogus)
	if raw, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	re, err := Open(Options{Dir: dir, Seed: 3, Logf: func(f string, args ...any) { logs = append(logs, fmt.Sprintf(f, args...)) }})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	start := time.Now()
	if _, err := re.NextProposal(v.ID, stubScorer{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("a proposal from a snapshot asking for 3e6 candidates took %v, want < 100ms", d)
	}
	if _, err := re.Get("bogus", false); err != ErrNotFound || len(logs) != 1 || !strings.Contains(logs[0], "reckless") {
		t.Fatalf("unknown strategy: Get err %v, logs %q; want not found and one log line", err, logs)
	}
	want, _ := ParamsFor(Moderate)
	if got := re.sessions[v.ID].Params; got != want {
		t.Fatalf("loaded Params %+v, want the moderate preset %+v", got, want)
	}
}

func TestTarget(t *testing.T) {
	st, err := Open(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Create("KMeans", 2048, "B", Aggressive, 0, 0, sparksim.DefaultConfig(), math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if app, size, cluster, err := st.Target(v.ID); err != nil || app != "KMeans" || size != 2048 || cluster != "B" {
		t.Fatalf("Target = %q, %v, %q, %v", app, size, cluster, err)
	}
	if _, _, _, err := st.Target("no-such-id"); err != ErrNotFound {
		t.Fatalf("Target of an unknown id: %v, want ErrNotFound", err)
	}
}
