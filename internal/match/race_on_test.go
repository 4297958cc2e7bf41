//go:build race

package match

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of what is Put, so a pooled workspace is not reliably
// warm and allocation pins through the pool cannot hold.
const raceEnabled = true
