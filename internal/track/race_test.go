//go:build race

package track

func init() { raceDetector = true }
