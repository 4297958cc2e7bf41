//go:build !race

package sdtw

const raceEnabled = false
