// Package lockdep is the product's mutex type and, under the optpoison
// build tag, a lock-order witness in the spirit of Linux lockdep.
//
// Every mutex field of the product is a Mutex[Owner]. Owner is the type
// that declares the field, and it names the lock's class: every instance
// of one declaring type is one class, so two sched values, or two jobs,
// share their order discipline. A type that needs two locks gives the
// second its own small declaring type.
//
// In a normal build Mutex is a struct embedding sync.Mutex: Lock and
// Unlock are sync.Mutex's own, promoted, so a lock costs what it always
// did, sync.NewCond(&x.mu) takes it as a sync.Locker, and go vet's
// copylocks still sees a mutex.
//
// Under -tags optpoison Lock first asks the witness. The witness keeps the
// classes each goroutine holds, in acquisition order, and records every
// order "B locked while A held" the first time a goroutine shows it, with
// both call sites. Lock panics, printing the sites of both orders, when
// the class it is about to take already leads back to a class the
// goroutine holds. The check reads the recorded orders, not the other
// goroutine, so an AB/BA inversion is reported on the second order even
// when the two goroutines never ran at the same time. Lock also panics
// when the goroutine already holds that lock or another of its class.
// After the first report every later Lock panics with it too, so a
// goroutine whose panic some caller recovers (net/http recovers a
// handler's) still fails the run on the next lock.
package lockdep
