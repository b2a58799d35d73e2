//go:build race

package lite

// raceEnabled reports a -race build. The race runtime drops a random share
// of sync.Pool Puts on purpose, so allocation pins that rely on pooled
// scratch measure the detector there, not the code.
const raceEnabled = true
