//go:build !race

package logr

const raceEnabled = false
