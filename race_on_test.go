//go:build race

package sdtw

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of what is Put and every allocation is instrumented, so
// allocation pins through pooled buffers cannot hold.
const raceEnabled = true
