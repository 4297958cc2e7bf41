//go:build race

package core

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of what is Put, so the engine's pooled workspace is not
// reliably warm and allocation pins through the pool cannot hold.
const raceEnabled = true
