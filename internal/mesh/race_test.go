//go:build race

package mesh

func init() { raceDetector = true }
