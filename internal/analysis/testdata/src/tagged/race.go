//go:build race

package tagged

const raceEnabled = true
