//go:build race

package lorel

// raceEnabled: the race detector instruments allocation, so allocation
// guards skip under -race.
const raceEnabled = true
