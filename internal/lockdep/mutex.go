//go:build !optpoison

package lockdep

import "sync"

// Mutex is a sync.Mutex whose class is Owner, the type declaring it. In
// this build it is exactly a sync.Mutex (see the package doc).
type Mutex[Owner any] struct{ sync.Mutex }
