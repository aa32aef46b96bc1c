// Package logrtest builds System Logger managers for the fixtures of
// packages layered on log streams (db and everything above it).
package logrtest

import (
	"testing"

	"sysplex/internal/cf"
	"sysplex/internal/dasd"
	"sysplex/internal/logr"
	"sysplex/internal/timer"
	"sysplex/internal/vclock"
)

// Loggers returns a constructor of per-system logger managers over one
// CF front and DASD volume. The managers share one sysplex timer, as
// the members of a real sysplex do: record timestamps are what merge
// their streams.
func Loggers(t testing.TB, front cf.Front, farm *dasd.Farm, volume string) func(sys string) *logr.Manager {
	clock := vclock.Real()
	tmr := timer.New(clock)
	return func(sys string) *logr.Manager {
		t.Helper()
		m, err := logr.New(logr.Config{
			System: sys, Front: front, Farm: farm, Volume: volume, Timer: tmr, Clock: clock,
		})
		if err != nil {
			t.Fatalf("logger for %s: %v", sys, err)
		}
		return m
	}
}
