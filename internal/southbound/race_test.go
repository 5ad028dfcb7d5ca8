//go:build race

package southbound

func init() { raceEnabled = true }
