//go:build !optpoison

package buffer

// poison is the use-after-recycle guard's hook in PutChunk, and trackLive
// the live-chunk count's hook in GetChunk and PutChunk; in a normal build
// both do nothing (see poison_on.go).
func poison(*Chunk) {}

func trackLive(int64) {}

// LiveChunks is always 0 without -tags optpoison: the count is not kept.
func LiveChunks() int64 { return 0 }
