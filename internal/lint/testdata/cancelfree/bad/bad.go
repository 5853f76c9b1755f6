package bad

import (
	"context"
	"time"
)

// The only mention of cancel is in a branch the exit path never takes, so
// the fallthrough path leaks. (A cancel with no references at all would
// not compile: the leak always hides behind a path split.)
func DeadBranch(ctx context.Context, debug bool) {
	ctx, cancel := context.WithCancel(ctx) // want "cancel func \"cancel\" of context\\.WithCancel is not called on every path"
	if debug {
		cancel()
	}
	_ = ctx
}

// Discarded outright.
func Discarded(ctx context.Context) context.Context {
	ctx, _ = context.WithTimeout(ctx, time.Second) // want "cancel func of context\\.WithTimeout discarded with _"
	return ctx
}

// Multi-path leak: the error branch returns without calling cancel, even
// though the happy path defers it.
func BranchLeak(ctx context.Context, fail bool) error {
	ctx, cancel := context.WithTimeout(ctx, time.Second) // want "cancel func \"cancel\" of context\\.WithTimeout is not called on every path"
	if fail {
		return ctx.Err()
	}
	defer cancel()
	return nil
}

// Loop leak: the early return inside the loop bypasses the call site
// after the loop.
func LoopLeak(ctx context.Context, n int) {
	ctx, cancel := context.WithDeadline(ctx, time.Now().Add(time.Second)) // want "cancel func \"cancel\" of context\\.WithDeadline is not called on every path"
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return
		}
	}
	cancel()
}

// withBudget wraps WithTimeout: its summary marks result 1 as a cancel
// func, so callers inherit the obligation.
func withBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, time.Second)
}

// Discarding a wrapper's cancel result is the same leak.
func WrapperDiscarded(ctx context.Context) context.Context {
	ctx, _ = withBudget(ctx) // want "cancel func of fixture/cancelfree/bad\\.withBudget discarded with _"
	return ctx
}
