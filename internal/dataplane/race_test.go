//go:build race

package dataplane

func init() { raceEnabled = true }
