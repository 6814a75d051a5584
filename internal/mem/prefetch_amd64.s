#include "textflag.h"

// func hostPrefetch(p *byte)
TEXT ·hostPrefetch(SB), NOSPLIT, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	RET
