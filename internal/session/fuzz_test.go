package session

import (
	"os"
	"path/filepath"
	"testing"

	"lite/internal/wal"
)

// FuzzSessionStoreOpen writes arbitrary bytes as sessions.json and one
// arbitrary WAL record beside it, then opens the store. Open must return a
// store or an error, never panic, and a store that opens must answer
// List, Get, NextProposal and Report without panicking.
func FuzzSessionStoreOpen(f *testing.F) {
	snap, err := os.ReadFile(filepath.Join(fixtureDir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap, []byte(`{"op":"report","id":"B.0.5.edge.aa152218","report":{"trial":0,"seconds":30,"failed":true}}`))
	f.Add(snap, []byte(`{"op":"propose","id":"A.100.C.454dfff3","trial":{"trial":3,"config":[1,2,3],"source":"explore"}}`))
	f.Add([]byte(`{"sessions":[null]}`), []byte(`{"op":"create","id":"x","session":null}`))
	f.Add([]byte(`{"sessions":[{"id":"x","strategy":"aggressive","params":{"Radius":1e308,"Candidates":3000000},"max_trials":9,"radius":-1}]}`),
		[]byte(`{"op":"close","id":"x","at":"2026-01-02T03:04:05Z"}`))
	f.Add([]byte(`{}`), []byte(`{"op":"create","id":"y","session":{"id":"y","trials":[{"trial":7}]}}`))
	f.Fuzz(func(t *testing.T, snapshot, record []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(record) > 0 && len(record) <= wal.MaxRecordBytes {
			w, _, _, err := wal.Open(wal.Options{Dir: dir, SyncInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(record); err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
		st, err := Open(Options{Dir: dir, Seed: 1, SyncInterval: -1})
		if err != nil {
			return
		}
		defer st.Close()
		for _, v := range st.List() {
			if _, err := st.Get(v.ID, true); err != nil {
				t.Fatalf("Get(%q) of a listed session: %v", v.ID, err)
			}
			trial := 0
			if p, err := st.NextProposal(v.ID, stubScorer{}); err == nil {
				trial = p.Trial
			}
			st.Report(v.ID, trial, 1, false)
			st.Report(v.ID, trial, 2, true)
		}
	})
}
