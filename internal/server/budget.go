package server

import (
	"context"
	"fmt"
	"sync"

	"github.com/optlab/opt/internal/lockdep"
)

// PageBudget arbitrates the global memory-page budget shared by every
// concurrently running job. The engine's per-run Options.MemoryPages is
// the §5 m_in/m_ex buffer budget of one triangulation; when optd runs many
// jobs on one machine those budgets add up, so the manager acquires a
// job's resolved page count here before dispatching it and the sum in use
// never exceeds the configured total — the multi-tenant analogue of the
// paper's single-run bound.
type PageBudget struct {
	mu    lockdep.Mutex[PageBudget]
	cond  *sync.Cond
	total int // 0 = unlimited
	inUse int
	high  int // high-water mark of inUse
}

// NewPageBudget returns a budget of total pages. total 0 disables
// arbitration: every Acquire succeeds immediately (accounting still runs).
func NewPageBudget(total int) *PageBudget {
	b := &PageBudget{total: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Total returns the configured budget (0 = unlimited).
func (b *PageBudget) Total() int { return b.total }

// InUse returns the pages currently acquired.
func (b *PageBudget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// HighWater returns the maximum pages ever simultaneously acquired.
func (b *PageBudget) HighWater() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.high
}

// Acquire blocks until n pages fit under the total, then takes them. It
// fails immediately when n can never fit (n > total), and unblocks with
// ctx's error when the context is cancelled while waiting.
func (b *PageBudget) Acquire(ctx context.Context, n int) error {
	if n < 0 {
		return fmt.Errorf("server: budget acquire of %d pages", n)
	}
	if b.total > 0 && n > b.total {
		return fmt.Errorf("%w: job needs %d pages, global budget is %d", ErrBudgetTooLarge, n, b.total)
	}
	// Wake the cond wait when ctx is cancelled, so a drain or DELETE does
	// not leave a worker parked here forever. ctx.Err() is a predicate that
	// changes outside b.mu, so the Broadcast takes the lock: otherwise the
	// cancel and its Broadcast could both land after the loop below checked
	// ctx.Err() and before Wait took its notify ticket, and the waiter would
	// park on a context that is already done.
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.cond.Broadcast()
	})
	defer stop()

	b.mu.Lock()
	defer b.mu.Unlock()
	for b.total > 0 && b.inUse+n > b.total {
		if err := ctx.Err(); err != nil {
			return err
		}
		b.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b.inUse += n
	if b.inUse > b.high {
		b.high = b.inUse
	}
	return nil
}

// Release returns n pages to the budget.
func (b *PageBudget) Release(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inUse -= n
	if b.inUse < 0 {
		// A release without a matching acquire is a manager bug; clamp so
		// accounting stays sane.
		b.inUse = 0
	}
	b.cond.Broadcast()
}
