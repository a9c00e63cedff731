//go:build race

package sim

func init() { raceDetector = true }
