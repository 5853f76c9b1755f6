package core

import (
	"sync"
	"time"

	"github.com/optlab/opt/internal/lockdep"
)

// taskClass distinguishes the two thread roles of §3.2: internal
// triangulation (the main thread's job) and external triangulation (the
// callback thread's job). A class is the N of its task's events.TaskDone:
// the values are events.TaskInternal and events.TaskExternal.
type taskClass int

const (
	classInternal taskClass = iota
	classExternal
)

// sched is the per-iteration work scheduler that realises the macro-level
// overlap and thread morphing. Workers have a home class — internal workers
// play the main thread, external workers play the callback thread. A worker
// whose home queue is empty "morphs" into the other type and steals from
// the other queue (§3.4), unless morphing is disabled (the Figure 4
// without-morphing configuration, where an idle thread stays idle).
type sched struct {
	mu       lockdep.Mutex[sched]
	cond     *sync.Cond
	queues   [2][]func() // one task is a chunk's worth of records; the index is its class
	closed   [2]bool     // no more tasks of this class will arrive
	inflight [2]int      // queued + running tasks per class
	morphing bool
	// onTask, when non-nil, is told the class and measured duration of every
	// task as it finishes, outside mu.
	onTask func(taskClass, time.Duration)

	// busy wall-clock accounting per worker HOME, for the Figure 4
	// thread-time series: without morphing each home only runs its own
	// class and the idle home shows near-zero time; with morphing the two
	// homes balance because idle workers steal the other class's tasks.
	workTime [2]time.Duration // guarded by mu

	// morphs counts thread-morph transitions: tasks a worker executed
	// outside its home class (§3.4). Guarded by mu.
	morphs int64
}

func newSched(morphing bool, onTask func(taskClass, time.Duration)) *sched {
	s := &sched{morphing: morphing, onTask: onTask}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// submit enqueues one task.
func (s *sched) submit(class taskClass, run func()) {
	s.mu.Lock()
	s.queues[class] = append(s.queues[class], run)
	s.inflight[class]++
	// Broadcast under the mutex, as condguard requires. The queues only
	// change under s.mu and Cond.Wait takes its notify ticket before it
	// unlocks, so no worker can sleep through this wakeup either way.
	s.cond.Broadcast()
	s.mu.Unlock()
}

// close marks a class as complete: no further submissions will arrive.
func (s *sched) close(class taskClass) {
	s.mu.Lock()
	s.closed[class] = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// done reports whether a class has finished all its work.
func (s *sched) doneLocked(class taskClass) bool {
	return s.closed[class] && s.inflight[class] == 0
}

// worker runs tasks until both classes are done. home determines which
// queue it prefers.
func (s *sched) worker(home taskClass) {
	other := 1 - home
	for {
		s.mu.Lock()
		var picked taskClass
		var fn func()
		for {
			if len(s.queues[home]) > 0 {
				picked = home
			} else if s.morphing && len(s.queues[other]) > 0 {
				picked = other
				s.morphs++
			} else if s.doneLocked(home) && (s.morphing && s.doneLocked(other) ||
				!s.morphing) {
				// Home drained. Without morphing the worker retires once its
				// own class is done; with morphing it retires only when all
				// work is done.
				s.mu.Unlock()
				return
			} else {
				s.cond.Wait()
				continue
			}
			q := s.queues[picked]
			fn = q[len(q)-1]
			s.queues[picked] = q[:len(q)-1]
			break
		}
		s.mu.Unlock()

		start := time.Now()
		fn()
		d := time.Since(start)
		if s.onTask != nil {
			s.onTask(picked, d)
		}

		s.mu.Lock()
		s.workTime[home] += d
		s.inflight[picked]--
		if s.doneLocked(picked) {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// run starts the worker pool and blocks until every submitted task in both
// classes has completed. threads is split between the two home classes:
// even indices are internal workers (the main thread and its OpenMP-style
// helpers), odd indices are external workers (the callback thread's side).
// submitFn runs on the caller's goroutine and performs the submissions; it
// may keep submitting while workers run (the macro overlap).
func (s *sched) run(threads int, submitFn func()) {
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		home := classInternal
		if i%2 == 1 {
			home = classExternal
		}
		wg.Add(1)
		go func(h taskClass) {
			defer wg.Done()
			s.worker(h)
		}(home)
	}
	submitFn()
	wg.Wait()
}

// classWork returns the accumulated busy time of the workers whose home is
// the given class.
func (s *sched) classWork(class taskClass) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workTime[class]
}

// morphCount returns the number of thread-morph transitions recorded so
// far (tasks executed outside their worker's home class).
func (s *sched) morphCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.morphs
}
