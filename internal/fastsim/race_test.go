//go:build race

package fastsim

func init() { raceEnabled = true }
