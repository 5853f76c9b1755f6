package lint

// Default returns the standard analyzer suite for the OPT repository,
// configured against the given module path. The per-analyzer package sets
// encode PR-1's layering decisions; DESIGN.md ("Enforced invariants") maps
// each rule to the paper section it protects.
func Default(module string) []*Analyzer {
	// The overlap-critical packages, named once: the held-lock checker
	// reports there as lockheld (strict) and everywhere else as chanflow,
	// so no package is covered by both registrations or by neither.
	strict := []string{
		module + "/internal/core",
		module + "/internal/ssd",
		module + "/internal/engine",
	}
	return []*Analyzer{
		NewCtxflow(),
		NewLockheld(strict),
		NewIoconfine([]string{
			// internal/ssd covers the native Linux backend too: the raw
			// io_uring/preadv/O_DIRECT syscalls in native_linux.go stay
			// confined behind the PageDevice contract, so the allowlist
			// needs no new entry for them.
			module + "/internal/ssd",
			module + "/internal/diskio",
			module + "/internal/storage",
			module + "/cmd",
		}),
		NewClosecheck([]string{
			module + "/internal/ssd",
			module + "/internal/diskio",
			module + "/internal/storage",
		}),
		NewEventkind(module + "/internal/events"),
		NewCancelfree(),
		NewPoolpair(module + "/internal/buffer"),
		NewAtomicfield(),
		NewCondguard(),
		NewGojoin(),
		// The whole-module concurrency layer (DESIGN.md §16).
		NewLockorder(),
		NewChanflow(strict),
		NewWaitjoin(),
	}
}
