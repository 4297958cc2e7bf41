//go:build race

package sift

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of what is Put and every allocation is instrumented, so
// allocation pins through the pooled workspace cannot hold.
const raceEnabled = true
