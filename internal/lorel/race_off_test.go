//go:build !race

package lorel

const raceEnabled = false
