#include "textflag.h"
#include "go_asm.h"

// func hostPrefetch(pages [][]byte, addr uint64)
TEXT ·hostPrefetch(SB), NOSPLIT, $0-32
	MOVQ	addr+24(FP), DX
	MOVQ	DX, BX
	SHRQ	$const_pageShift, BX
	CMPQ	BX, pages_len+8(FP)
	JAE	done
	MOVQ	pages_base+0(FP), AX
	LEAQ	(BX)(BX*2), BX
	MOVQ	(AX)(BX*8), AX
	ANDQ	$(const_pageSize-1), DX
	PREFETCHT0	(AX)(DX*1)
done:
	RET
