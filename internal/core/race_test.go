//go:build race

package core

const raceEnabled = true // the race detector allocates on its own
