//go:build race

package cop

func init() { raceDetector = true }
