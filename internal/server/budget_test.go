package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestPageBudgetAcquireRelease(t *testing.T) {
	b := NewPageBudget(10)
	ctx := context.Background()
	if err := b.Acquire(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if got := b.InUse(); got != 6 {
		t.Fatalf("InUse = %d, want 6", got)
	}

	// A second acquire that does not fit must block until pages free up.
	acquired := make(chan error, 1)
	go func() { acquired <- b.Acquire(ctx, 6) }()
	select {
	case err := <-acquired:
		t.Fatalf("oversubscribing acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	b.Release(6)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release did not wake the waiter")
	}
	if hw := b.HighWater(); hw != 6 {
		t.Fatalf("HighWater = %d, want 6", hw)
	}
	b.Release(6)
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse after release = %d, want 0", got)
	}
}

// TestPageBudgetHighWater pins the peak accounting the server tests read
// after a run: the mark rises with every acquire that sets a new peak,
// survives releases, and neither a rejected nor a cancelled acquire moves it.
func TestPageBudgetHighWater(t *testing.T) {
	b := NewPageBudget(10)
	ctx := context.Background()
	steps := []struct {
		acquire, release int
		wantHigh         int
	}{
		{acquire: 3, wantHigh: 3},
		{acquire: 4, wantHigh: 7},
		{release: 4, wantHigh: 7},
		{acquire: 2, wantHigh: 7},
		{acquire: 5, wantHigh: 10},
		{release: 10, wantHigh: 10},
	}
	for i, s := range steps {
		if s.acquire > 0 {
			if err := b.Acquire(ctx, s.acquire); err != nil {
				t.Fatalf("step %d: Acquire(%d): %v", i, s.acquire, err)
			}
		}
		if s.release > 0 {
			b.Release(s.release)
		}
		if got := b.HighWater(); got != s.wantHigh {
			t.Fatalf("step %d: HighWater = %d, want %d", i, got, s.wantHigh)
		}
	}
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d, want 0", got)
	}

	if err := b.Acquire(ctx, 11); !errors.Is(err, ErrBudgetTooLarge) {
		t.Fatalf("Acquire(11) on total 10 = %v, want ErrBudgetTooLarge", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := b.Acquire(cancelled, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on a cancelled context = %v, want context.Canceled", err)
	}
	if got, inUse := b.HighWater(), b.InUse(); got != 10 || inUse != 0 {
		t.Fatalf("after failed acquires HighWater = %d, InUse = %d, want 10 and 0", got, inUse)
	}
}

func TestPageBudgetRejectsImpossible(t *testing.T) {
	b := NewPageBudget(4)
	err := b.Acquire(context.Background(), 5)
	if !errors.Is(err, ErrBudgetTooLarge) {
		t.Fatalf("Acquire(5) on total 4 = %v, want ErrBudgetTooLarge", err)
	}
}

func TestPageBudgetCancelledWait(t *testing.T) {
	b := NewPageBudget(4)
	if err := b.Acquire(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Acquire(ctx, 2) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Acquire = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not wake the budget waiter")
	}
	if got := b.InUse(); got != 4 {
		t.Fatalf("InUse after cancelled wait = %d, want 4 (no pages leaked)", got)
	}
}

func TestPageBudgetUnlimited(t *testing.T) {
	// total 0 disables arbitration: acquires never block, but accounting
	// still tracks the in-use sum so /healthz reports it.
	b := NewPageBudget(0)
	for i := 0; i < 50; i++ {
		if err := b.Acquire(context.Background(), 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.InUse(); got != 50<<20 {
		t.Fatalf("InUse = %d, want %d", got, 50<<20)
	}
	for i := 0; i < 50; i++ {
		b.Release(1 << 20)
	}
	if b.InUse() != 0 {
		t.Fatal("releases did not return the pages")
	}
}
