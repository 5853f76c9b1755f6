package difftest

import (
	"os"
	"testing"

	"github.com/optlab/opt/internal/testutil"
)

func TestMain(m *testing.M) { os.Exit(testutil.RunCheckingChunks(m)) }
