package tagged

// Detected reports which of the two build-tagged twins was compiled in.
func Detected() bool { return raceEnabled }
