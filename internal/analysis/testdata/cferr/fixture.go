// Package fixture exercises the cferr analyzer: an error-returning cf
// or cfrm call used as a bare statement silently drops ErrCFDown.
package fixture

import (
	"context"

	"sysplex/internal/cf"
)

func drops(l cf.Lock, ls cf.List) {
	l.Connect(context.Background(), "SYS1")                         // want `statement drops the error from cf.Connect`
	l.Release(context.Background(), 0, "SYS1", cf.Exclusive)        // want `statement drops the error from cf.Release`
	go l.DeleteRecord(context.Background(), "SYS1", "RES.1", "TX1") // want `go statement drops the error from cf.DeleteRecord`
	defer ls.ReleaseLock(context.Background(), 0, "SYS1")           // want `defer statement drops the error from cf.ReleaseLock`
}

func handled(l cf.Lock, ls cf.List) error {
	if err := l.Connect(context.Background(), "SYS1"); err != nil {
		return err
	}
	// An explicit discard is a reviewed decision and stays legal.
	_ = l.Release(context.Background(), 0, "SYS1", cf.Exclusive)
	defer func() { _ = ls.ReleaseLock(context.Background(), 0, "SYS1") }()
	// Calls without an error result are of no interest.
	ls.TotalEntries()
	_ = ls.Len(0)
	return nil
}
