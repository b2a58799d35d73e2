package session

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"lite/internal/sparksim"
	"lite/internal/wal"
)

// The fixture under testdata/store was written by an earlier version of
// the store: a WAL segment, the FOLDED cursor and the sessions.json
// snapshot left behind when the final snapshot failed after a mid-run
// fold. testdata/views.json holds every session's view after replay and
// testdata/sessions.replayed.json the snapshot the replay folds into.
// Together they pin the on-disk format: a store must keep reading what an
// older one wrote, and write the same bytes for the same mutations.

const fixtureDir = "testdata/store"

// fixtureClock ticks one second per call from a fixed instant.
func fixtureClock() func() time.Time {
	clock := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	}
}

// writeFixture drives a fresh store in dir through every event kind
// (create with and without an estimate, propose, report with a violation
// and a failure, close), folds once midway, then fails the final snapshot
// so the tail survives only in the WAL — the shape of a crash.
func writeFixture(t *testing.T, dir string) {
	t.Helper()
	fs := wal.NewFaultFS(nil)
	st, err := Open(Options{Dir: dir, FS: fs, Seed: 7, Now: fixtureClock()})
	if err != nil {
		t.Fatal(err)
	}
	st.snapshotEvery = 1 << 20
	base := sparksim.DefaultConfig()
	sc := stubScorer{score: func(c sparksim.Config) float64 { return 40 + c[0] }}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step := func(id string, seconds float64, failed bool) {
		t.Helper()
		p, err := st.NextProposal(id, sc)
		must(err)
		_, err = st.Report(id, p.Trial, seconds, failed)
		must(err)
	}

	a, err := st.Create("A", 100, "C", Moderate, 8, 1.5, base, 100)
	must(err)
	b, err := st.Create("B", 0.5, "edge", Conservative, 4, 2, base, math.NaN())
	must(err)
	for _, s := range []float64{100, 90, 151} {
		step(a.ID, s, false)
	}
	_, err = st.NextProposal(b.ID, sc)
	must(err)
	must(st.Snapshot())

	step(a.ID, 85, false)
	step(a.ID, 150, true)
	_, err = st.Report(b.ID, 0, 30, true)
	must(err)
	_, err = st.NextProposal(b.ID, sc)
	must(err)
	c, err := st.Create("C", 2048, "A", Aggressive, 0, 0, base, 42)
	must(err)
	step(c.ID, 42, false)
	_, err = st.CloseSession(c.ID)
	must(err)

	fs.FailRename(true)
	must(st.Close())
	fs.Heal()
}

// fixtureViews renders every session's full view, in List order.
func fixtureViews(t *testing.T, st *Store) []byte {
	t.Helper()
	var views []any
	for _, s := range st.List() {
		v, err := st.Get(s.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	out, err := json.MarshalIndent(views, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func fileNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestStoreWritesFixtureBytes replays the fixture's script and requires
// the WAL segment, the cursor and the snapshot to match the fixture byte
// for byte.
func TestStoreWritesFixtureBytes(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir)
	got, want := readDir(t, dir), readDir(t, fixtureDir)
	if g, w := fileNames(got), fileNames(want); len(g) != len(w) {
		t.Fatalf("files = %v, want %v", g, w)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !bytes.Equal(g, w) {
			t.Errorf("%s differs from the fixture:\n got:  %q\n want: %q", name, g, w)
		}
	}
}

// TestStoreReplaysFixture opens a copy of the fixture: the replayed views
// and the snapshot the boot fold writes must match what the earlier store
// produced, byte for byte.
func TestStoreReplaysFixture(t *testing.T) {
	dir := t.TempDir()
	for name, data := range readDir(t, fixtureDir) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(Options{Dir: dir, Seed: 7, Now: fixtureClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.RecoveredSessions != 3 || st.RecoveredEvents == 0 {
		t.Fatalf("recovered (%d sessions, %d events), want 3 sessions and a replayed tail",
			st.RecoveredSessions, st.RecoveredEvents)
	}
	want, err := os.ReadFile("testdata/views.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := fixtureViews(t, st); !bytes.Equal(got, want) {
		t.Errorf("replayed views differ:\n got:  %s\n want: %s", got, want)
	}
	want, err = os.ReadFile("testdata/sessions.replayed.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-folded snapshot differs:\n got:  %s\n want: %s", got, want)
	}
}
