package testutil

import (
	"fmt"
	"os"
	"testing"

	"github.com/optlab/opt/internal/buffer"
)

// RunCheckingChunks runs the package's tests and returns the exit code for
// TestMain, turned into a failure when chunks handed out by
// buffer.GetChunk are still out of the free list after the last test.
// Every run recycles what it decoded — the internal area at the end of an
// iteration, the external area at Close, a failed decode at once — so a
// nonzero count is a chunk some path dropped. The count is kept only
// under -tags optpoison; a normal build reads 0 and pays nothing.
func RunCheckingChunks(m *testing.M) int {
	code := m.Run()
	if n := buffer.LiveChunks(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "LEAK: %d chunks from buffer.GetChunk never went back through PutChunk\n", n)
		code = 1
	}
	return code
}
