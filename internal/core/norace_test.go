//go:build !race

package core

const raceEnabled = false // the race detector allocates on its own
