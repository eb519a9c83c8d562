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
	go l.SetRecord(context.Background(), "SYS1", "RES.1", cf.Share) // want `go statement drops the error from cf.SetRecord`
	defer ls.ReleaseLock(context.Background(), 0, "SYS1")           // want `defer statement drops the error from cf.ReleaseLock`
}

func asyncDrops(a *cf.AsyncCtx) {
	_, err := a.Run(context.Background(), "IRLM") // want `assignment discards the async completion handle from cf.Run`
	_ = err
}

func asyncHandled(a *cf.AsyncCtx) error {
	c, err := a.Run(context.Background(), "IRLM")
	if err != nil {
		return err
	}
	if err := c.Wait(); err != nil {
		return err
	}
	c2, err := a.Run(context.Background(), "IRLM")
	if err != nil {
		return err
	}
	return c2.Err()
}

// storedNeverWaited keeps the handle but never polls Done, calls Wait,
// or reads Err — the async command's error is dropped one assignment
// later than a blank would have dropped it.
func storedNeverWaited(a *cf.AsyncCtx) error {
	c, err := a.Run(context.Background(), "IRLM") // want `completion handle c is stored but never waited`
	if err != nil {
		return err
	}
	if c != nil {
		// An identity check reads the pointer, not the result.
	}
	_ = c
	return nil
}

// escapedHandle sends the handle somewhere a Wait can still happen, so
// it is not flagged.
func escapedHandle(a *cf.AsyncCtx, sink chan *cf.Completion) error {
	c, err := a.Run(context.Background(), "IRLM")
	if err != nil {
		return err
	}
	sink <- c
	return nil
}

// returnedHandle hands the completion to the caller — their
// responsibility now.
func returnedHandle(a *cf.AsyncCtx) (*cf.Completion, error) {
	c, err := a.Run(context.Background(), "IRLM")
	return c, err
}

func handled(l cf.Lock, ls cf.List) error {
	if err := l.Connect(context.Background(), "SYS1"); err != nil {
		return err
	}
	// An explicit discard is a reviewed decision and stays legal.
	_ = l.Release(context.Background(), 0, "SYS1", cf.Exclusive)
	defer func() { _ = ls.ReleaseLock(context.Background(), 0, "SYS1") }()
	// Calls without an error result are of no interest.
	ls.Unmonitor("SYS1", 0)
	_ = ls.Len(0)
	return nil
}
