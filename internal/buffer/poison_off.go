//go:build !optpoison

package buffer

// poison is the use-after-recycle guard's hook in PutChunk; in a normal
// build it does nothing (see poison_on.go).
func poison(*Chunk) {}
