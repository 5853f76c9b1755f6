//go:build optpoison

#include "textflag.h"

// func goroutine() uintptr
TEXT ·goroutine(SB), NOSPLIT, $0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET
