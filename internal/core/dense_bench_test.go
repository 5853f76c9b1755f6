package core

import (
	"testing"
	"time"

	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/storage"
)

// denseStore builds the dense-cpu benchmark workload's input: the
// degree-ordered 12 000-vertex R-MAT proxy of twitter's |E|/|V| density,
// drawn from the workload seed, on raw 4096-byte pages (≈ 860 of them).
func denseStore(t testing.TB, seed int64) *storage.Store {
	t.Helper()
	d, err := gen.DatasetByName("twitter")
	if err != nil {
		t.Fatal(err)
	}
	d.Seed = seed
	g, err := d.Proxy(12000)
	if err != nil {
		t.Fatal(err)
	}
	return buildStore(t, g, 4096)
}

// BenchmarkOPTDenseCPU is the dense-cpu benchmark workload as a Go
// benchmark — 15 % buffer, no simulated latency — serial and on 2 threads,
// so the intersect kernel's ms/op, the run's allocs/op and what the second
// thread buys show in the bench smoke.
func BenchmarkOPTDenseCPU(b *testing.B) {
	st := denseStore(b, 1)
	run := func(b *testing.B, o optRunner, threads int) time.Duration {
		opts := engine.Options{Threads: threads, MemoryPages: int(float64(st.NumPages) * 0.15)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := runFile(st, o, opts); err != nil {
				b.Fatal(err)
			}
		}
		return b.Elapsed() / time.Duration(b.N)
	}
	var one time.Duration
	b.Run("serial", func(b *testing.B) { one = run(b, serial, 0) })
	b.Run("threads=2", func(b *testing.B) {
		two := run(b, parallel, 2)
		if one > 0 {
			b.ReportMetric(float64(one)/float64(two), "serial/parallel")
		}
	})
}
