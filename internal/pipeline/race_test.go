//go:build race

package pipeline

// raceEnabled reports a race-detector build, whose runtime makes allocation
// counts vary from run to run.
const raceEnabled = true
