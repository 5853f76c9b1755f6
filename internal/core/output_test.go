package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCollectingOutputSorted(t *testing.T) {
	o := &CollectingOutput{}
	o.Emit(5, 6, []uint32{9, 7})
	o.Emit(1, 2, []uint32{3})
	got := o.Triangles()
	want := []Triangle{{1, 2, 3}, {5, 6, 7}, {5, 6, 9}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFuncOutput(t *testing.T) {
	var n int
	FuncOutput(func(u, v uint32, ws []uint32) { n += len(ws) }).Emit(1, 2, []uint32{3, 4})
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestNestedWriterRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	nw := NewNestedWriter(&buf)
	nw.Emit(1, 2, []uint32{3, 4})
	nw.Emit(10, 20, []uint32{30})
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if nw.Triangles() != 3 {
		t.Fatalf("Triangles = %d, want 3", nw.Triangles())
	}
	var got []Triangle
	err := ReadNested(&buf, func(u, v uint32, ws []uint32) error {
		for _, w := range ws {
			got = append(got, Triangle{u, v, w})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Triangle{{1, 2, 3}, {1, 2, 4}, {10, 20, 30}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestNestedWriterConcurrentEmitters(t *testing.T) {
	var buf bytes.Buffer
	nw := NewNestedWriter(&buf)
	var wg sync.WaitGroup
	const emitters = 8
	const perEmitter = 5000
	for e := 0; e < emitters; e++ {
		e := e
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				nw.Emit(uint32(e), uint32(i), []uint32{uint32(i + 1), uint32(i + 2)})
			}
		}()
	}
	wg.Wait()
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	wantTris := int64(emitters * perEmitter * 2)
	if nw.Triangles() != wantTris {
		t.Fatalf("Triangles = %d, want %d", nw.Triangles(), wantTris)
	}
	var n int64
	if err := ReadNested(&buf, func(_, _ uint32, ws []uint32) error {
		n += int64(len(ws))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != wantTris {
		t.Fatalf("decoded %d triangles, want %d (Close lost buffered data?)", n, wantTris)
	}
	if nw.BytesWritten() == 0 {
		t.Fatal("BytesWritten = 0")
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.after -= len(p)
	if w.after < 0 {
		return 0, errWriterFull
	}
	return len(p), nil
}

var errWriterFull = errSentinel("writer full")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

func TestNestedWriterPropagatesError(t *testing.T) {
	nw := NewNestedWriter(&failingWriter{after: 10})
	for i := 0; i < 100_000; i++ {
		nw.Emit(uint32(i), uint32(i+1), []uint32{uint32(i + 2)})
	}
	if err := nw.Close(); err == nil {
		t.Fatal("Close: want error from underlying writer")
	}
}

func TestReadNestedTruncated(t *testing.T) {
	var buf bytes.Buffer
	nw := NewNestedWriter(&buf)
	nw.Emit(1, 2, []uint32{3})
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-2] // cut the last w
	err := ReadNested(bytes.NewReader(data), func(_, _ uint32, _ []uint32) error { return nil })
	if err == nil {
		t.Fatal("truncated stream: want error")
	}
}

func TestSchedMorphingStealsWork(t *testing.T) {
	s := newSched(true, nil)
	var mu sync.Mutex
	ran := 0
	s.run(4, func() {
		// Only external tasks: internal-home workers must morph.
		for i := 0; i < 100; i++ {
			s.submit(classExternal, func() {
				mu.Lock()
				ran++
				mu.Unlock()
			})
		}
		s.close(classInternal)
		s.close(classExternal)
	})
	if ran != 100 {
		t.Fatalf("ran = %d, want 100", ran)
	}
}

func TestSchedNoMorphingSeparation(t *testing.T) {
	var told [2]atomic.Int64 // tasks the onTask hook saw, per class
	s := newSched(false, func(c taskClass, _ time.Duration) { told[c].Add(1) })
	var mu sync.Mutex
	ran := map[taskClass]int{}
	s.run(2, func() {
		for i := 0; i < 10; i++ {
			s.submit(classInternal, func() { mu.Lock(); ran[classInternal]++; mu.Unlock() })
			s.submit(classExternal, func() { mu.Lock(); ran[classExternal]++; mu.Unlock() })
		}
		s.close(classInternal)
		s.close(classExternal)
	})
	if ran[classInternal] != 10 || ran[classExternal] != 10 {
		t.Fatalf("ran = %v", ran)
	}
	if in, ex := told[classInternal].Load(), told[classExternal].Load(); in != 10 || ex != 10 {
		t.Fatalf("onTask saw %d internal and %d external tasks, want 10 and 10", in, ex)
	}
	if s.classWork(classInternal) == 0 && s.classWork(classExternal) == 0 {
		t.Fatal("no work time recorded")
	}
}

func TestSchedTasksSubmittedDuringRun(t *testing.T) {
	s := newSched(true, nil)
	var mu sync.Mutex
	total := 0
	s.run(3, func() {
		var cascade func(depth int)
		cascade = func(depth int) {
			s.submit(classExternal, func() {
				mu.Lock()
				total++
				mu.Unlock()
				if depth > 0 {
					cascade(depth - 1)
				} else {
					s.close(classExternal)
				}
			})
		}
		cascade(20)
		s.close(classInternal)
	})
	if total != 21 {
		t.Fatalf("total = %d, want 21", total)
	}
}
