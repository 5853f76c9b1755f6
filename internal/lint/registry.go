package lint

// Default returns the standard analyzer suite for the OPT repository,
// configured against the given module path. The per-analyzer package sets
// encode PR-1's layering decisions; DESIGN.md ("Enforced invariants") maps
// each rule to the paper section it protects.
func Default(module string) []*Analyzer {
	return []*Analyzer{
		NewLockheld(),
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
		NewAtomicfield(),
		NewCondguard(),
	}
}
