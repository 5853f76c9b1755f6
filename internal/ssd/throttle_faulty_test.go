package ssd

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestThrottleAccumulatesSmallCharges checks that sub-quantum charges only
// build debt and never sleep.
func TestThrottleAccumulatesSmallCharges(t *testing.T) {
	var th Throttle
	for i := 0; i < 4; i++ {
		th.Charge(SleepQuantum / 8)
	}
	if want := 4 * (SleepQuantum / 8); th.debt != want {
		t.Fatalf("debt = %v, want %v", th.debt, want)
	}
	th.Charge(0)
	th.Charge(-time.Second)
	if want := 4 * (SleepQuantum / 8); th.debt != want {
		t.Fatalf("debt after zero/negative charges = %v, want %v", th.debt, want)
	}
}

// TestThrottleSleepsAndCredits checks that crossing the quantum sleeps the
// debt off and that the oversleep credit is capped.
func TestThrottleSleepsAndCredits(t *testing.T) {
	var th Throttle
	start := time.Now()
	th.Charge(2 * SleepQuantum)
	elapsed := time.Since(start)
	if elapsed < SleepQuantum {
		t.Fatalf("Charge over the quantum slept %v, want >= %v", elapsed, SleepQuantum)
	}
	if th.debt >= SleepQuantum {
		t.Fatalf("debt = %v after sleeping, want < %v", th.debt, SleepQuantum)
	}
	if th.debt < -4*SleepQuantum {
		t.Fatalf("debt = %v, breaches the -4*SleepQuantum credit cap", th.debt)
	}

	// However badly the kernel oversleeps, the credit never exceeds the cap.
	th = Throttle{debt: SleepQuantum}
	th.Charge(time.Nanosecond)
	if th.debt < -4*SleepQuantum {
		t.Fatalf("debt = %v, breaches the credit cap", th.debt)
	}
}

// TestThrottleFlush checks Flush retires all outstanding debt.
func TestThrottleFlush(t *testing.T) {
	var th Throttle
	th.Charge(SleepQuantum / 2)
	th.Flush()
	if th.debt > 0 {
		t.Fatalf("debt = %v after Flush, want <= 0", th.debt)
	}
	credit := th.debt
	th.Flush() // flushing with no debt must not sleep or change anything
	if th.debt != credit {
		t.Fatalf("debt changed across empty Flush: %v -> %v", credit, th.debt)
	}
}

// TestThrottlePerGoroutine exercises the documented concurrency contract —
// one Throttle per goroutine — under the race detector, and checks the
// aggregate guarantee: real sleep time converges to the charged latency,
// never undershooting by more than the credit cap.
func TestThrottlePerGoroutine(t *testing.T) {
	const (
		goroutines = 4
		perCharge  = SleepQuantum / 4
		charges    = 40 // 10ms of simulated latency per goroutine
	)
	var wg sync.WaitGroup
	elapsed := make([]time.Duration, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var th Throttle
			start := time.Now()
			for i := 0; i < charges; i++ {
				th.Charge(perCharge)
			}
			th.Flush()
			elapsed[g] = time.Since(start)
		}(g)
	}
	wg.Wait()
	charged := time.Duration(charges) * perCharge
	floor := charged - 4*SleepQuantum
	for g, e := range elapsed {
		if e < floor {
			t.Errorf("goroutine %d slept %v for %v of charged latency, want >= %v", g, e, charged, floor)
		}
	}
}

// TestFaultyDeviceEveryNConcurrent hammers FailEveryN from many goroutines:
// the atomic read counter must make the failure count exact, not
// approximate, and the race detector must stay quiet.
func TestFaultyDeviceEveryNConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 300
		everyN     = 3
	)
	dev := &FaultyDevice{PageDevice: newMemDevice(64, 4), FailEveryN: everyN}

	var wg sync.WaitGroup
	injected := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, err := dev.ReadPages(0, 1)
				switch {
				case err == nil:
				case errors.Is(err, ErrInjected):
					injected[g]++
				default:
					t.Errorf("unexpected read error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	total := int64(goroutines * perG)
	if got := dev.Reads(); got != total {
		t.Fatalf("Reads() = %d, want %d", got, total)
	}
	var failures int64
	for _, n := range injected {
		failures += n
	}
	if want := total / everyN; failures != want {
		t.Fatalf("injected failures = %d, want exactly %d", failures, want)
	}
}

// TestFaultyDeviceFailPageConcurrent checks the page-targeted schedule
// under concurrency: every read covering the poisoned page fails, every
// read missing it succeeds.
func TestFaultyDeviceFailPageConcurrent(t *testing.T) {
	dev := &FaultyDevice{PageDevice: newMemDevice(64, 8), FailPage: 5, FailPageSet: true}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := dev.ReadPages(4, 2); !errors.Is(err, ErrInjected) {
					t.Errorf("read covering poisoned page: err = %v, want ErrInjected", err)
					return
				}
				if _, err := dev.ReadPages(0, 4); err != nil {
					t.Errorf("read missing poisoned page: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
