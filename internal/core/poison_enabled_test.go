//go:build optpoison

package core

// poisonEnabled reports that buffer.PutChunk drops a recycled chunk's
// record headers (the use-after-recycle guard), so decodes allocate.
const poisonEnabled = true
