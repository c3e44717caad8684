// AVX2 scan kernels: one call classifies a tuple against a run of 16-lane
// blocks of a column view. See masks_amd64.go for the dispatch contract and
// window.go (scanPortable, insertScanPortable) for the semantics reproduced.
//
// Both kernels read only the data pointer of each column's slice header
// and whole blocks behind it: the caller guarantees every column has
// end*16 lanes of capacity (the padding invariant of Window). Column values
// and tv are finite or +Inf padding, never NaN, so the ordered-quiet
// predicates agree exactly with Go's comparison operators.

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 requires three checks: the OS must have enabled XSAVE
// (CPUID.1:ECX.OSXSAVE), the enabled XCR0 state must cover XMM and YMM
// registers (XGETBV bits 1 and 2), and the CPU must report AVX2
// (CPUID.7.0:EBX bit 5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27|1<<28), R8       // OSXSAVE and AVX
	CMPL R8, $(1<<27|1<<28)
	JNE  unsupported
	MOVL $0, CX
	XGETBV                         // XCR0 into DX:AX
	ANDL $6, AX                    // XMM and YMM state enabled
	CMPL AX, $6
	JNE  unsupported
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX               // AVX2
	JZ   unsupported
	MOVB $1, ret+0(FP)
	RET
unsupported:
	MOVB $0, ret+0(FP)
	RET

// func scanAVX2(view [][]float64, tv []float64, first, end int) (block int, mask uint32)
//
// The membership scan. Y1–Y4 hold, for the 16 lanes of the current block,
// "tv ≥ column on every column so far" (GE_OQ, one compare direction); a
// block is left as soon as no lane survives, and the first block whose
// lanes survive every column is returned with their mask.
//
// SI view headers, DX columns, DI tv, BX block, CX end, R8 byte offset of
// the block, R9 column, R10 its slice header, R11 its block.
TEXT ·scanAVX2(SB), NOSPLIT, $0-76
	MOVQ view_base+0(FP), SI
	MOVQ view_len+8(FP), DX
	MOVQ tv_base+24(FP), DI
	MOVQ first+48(FP), BX
	MOVQ end+56(FP), CX
	XORL AX, AX
	CMPQ BX, CX
	JGE  scanret

scanblock:
	MOVQ BX, R8
	SHLQ $7, R8                    // 16 lanes × 8 bytes
	MOVQ (SI), R11
	ADDQ R8, R11
	VBROADCASTSD (DI), Y0
	VCMPPD $0x1D, (R11), Y0, Y1
	VCMPPD $0x1D, 32(R11), Y0, Y2
	VCMPPD $0x1D, 64(R11), Y0, Y3
	VCMPPD $0x1D, 96(R11), Y0, Y4
	MOVQ $1, R9
	LEAQ 24(SI), R10

scancol:
	CMPQ R9, DX
	JGE  scanmask
	VORPD     Y1, Y2, Y5
	VORPD     Y3, Y4, Y6
	VORPD     Y5, Y6, Y5
	VMOVMSKPD Y5, R12
	TESTL     R12, R12
	JZ        scannext             // tv beats every lane somewhere
	MOVQ (R10), R11
	ADDQ R8, R11
	VBROADCASTSD (DI)(R9*8), Y0
	VCMPPD $0x1D, (R11), Y0, Y5
	VCMPPD $0x1D, 32(R11), Y0, Y6
	VCMPPD $0x1D, 64(R11), Y0, Y7
	VCMPPD $0x1D, 96(R11), Y0, Y8
	VANDPD Y5, Y1, Y1
	VANDPD Y6, Y2, Y2
	VANDPD Y7, Y3, Y3
	VANDPD Y8, Y4, Y4
	INCQ R9
	ADDQ $24, R10
	JMP  scancol

scanmask:
	VMOVMSKPD Y1, AX
	VMOVMSKPD Y2, R12
	SHLL $4, R12
	ORL  R12, AX
	VMOVMSKPD Y3, R12
	SHLL $8, R12
	ORL  R12, AX
	VMOVMSKPD Y4, R12
	SHLL $12, R12
	ORL  R12, AX
	JNZ  scandone

scannext:
	INCQ BX
	CMPQ BX, CX
	JLT  scanblock
	XORL AX, AX

scandone:
	VZEROUPPER
scanret:
	MOVQ BX, block+64(FP)
	MOVL AX, mask+72(FP)
	RET

// func insertScanAVX2(cols [][]float64, tv []float64, evicts []uint32, end int, lastMask uint32) (block int, dom, evicted uint32)
//
// The insert scan. Y1–Y4 accumulate "tv < column somewhere" (better) and
// Y5–Y8 "tv > column somewhere" (worse) for the 16 lanes of the current
// block; a block's columns are left early once every lane has both. Per
// block it stores the lanes tv dominates in evicts and stops at the first
// block holding a lane that dominates tv.
//
// SI column headers, DX columns, DI tv, CX evicts, BX block, R8 byte
// offset of the block, R9 column, R10 its slice header, R11 its block (and
// scratch between columns), R12/R13 the block's better/worse masks, AX the
// lanes evicted so far.
TEXT ·insertScanAVX2(SB), NOSPLIT, $0-104
	MOVQ cols_base+0(FP), SI
	MOVQ cols_len+8(FP), DX
	MOVQ tv_base+24(FP), DI
	MOVQ evicts_base+48(FP), CX
	XORL BX, BX
	XORL R13, R13                  // dom
	XORL AX, AX                    // evicted
	CMPQ BX, end+72(FP)
	JGE  insret

insblock:
	MOVQ BX, R8
	SHLQ $7, R8
	MOVQ (SI), R11
	ADDQ R8, R11
	VBROADCASTSD (DI), Y0
	VCMPPD $0x11, (R11), Y0, Y1
	VCMPPD $0x11, 32(R11), Y0, Y2
	VCMPPD $0x11, 64(R11), Y0, Y3
	VCMPPD $0x11, 96(R11), Y0, Y4
	VCMPPD $0x1E, (R11), Y0, Y5
	VCMPPD $0x1E, 32(R11), Y0, Y6
	VCMPPD $0x1E, 64(R11), Y0, Y7
	VCMPPD $0x1E, 96(R11), Y0, Y8
	MOVQ $1, R9
	LEAQ 24(SI), R10

inscol:
	CMPQ R9, DX
	JGE  insmask
	VANDPD    Y1, Y5, Y9
	VANDPD    Y2, Y6, Y10
	VANDPD    Y3, Y7, Y11
	VANDPD    Y4, Y8, Y12
	VANDPD    Y9, Y10, Y9
	VANDPD    Y11, Y12, Y11
	VANDPD    Y9, Y11, Y9
	VMOVMSKPD Y9, R11
	CMPL      R11, $15
	JEQ       insincomparable      // every lane already incomparable
	MOVQ (R10), R11
	ADDQ R8, R11
	VBROADCASTSD (DI)(R9*8), Y0
	VCMPPD $0x11, (R11), Y0, Y9
	VCMPPD $0x11, 32(R11), Y0, Y10
	VCMPPD $0x11, 64(R11), Y0, Y11
	VCMPPD $0x11, 96(R11), Y0, Y12
	VORPD  Y9, Y1, Y1
	VORPD  Y10, Y2, Y2
	VORPD  Y11, Y3, Y3
	VORPD  Y12, Y4, Y4
	VCMPPD $0x1E, (R11), Y0, Y9
	VCMPPD $0x1E, 32(R11), Y0, Y10
	VCMPPD $0x1E, 64(R11), Y0, Y11
	VCMPPD $0x1E, 96(R11), Y0, Y12
	VORPD  Y9, Y5, Y5
	VORPD  Y10, Y6, Y6
	VORPD  Y11, Y7, Y7
	VORPD  Y12, Y8, Y8
	INCQ R9
	ADDQ $24, R10
	JMP  inscol

insincomparable:
	// Nothing to evict and no dominator, whatever the padding lanes hold.
	MOVL $0, (CX)(BX*4)
	JMP  insnext

insmask:
	VMOVMSKPD Y1, R12
	VMOVMSKPD Y2, R11
	SHLL $4, R11
	ORL  R11, R12
	VMOVMSKPD Y3, R11
	SHLL $8, R11
	ORL  R11, R12
	VMOVMSKPD Y4, R11
	SHLL $12, R11
	ORL  R11, R12                   // better
	VMOVMSKPD Y5, R13
	VMOVMSKPD Y6, R11
	SHLL $4, R11
	ORL  R11, R13
	VMOVMSKPD Y7, R11
	SHLL $8, R11
	ORL  R11, R13
	VMOVMSKPD Y8, R11
	SHLL $12, R11
	ORL  R11, R13                   // worse
	LEAQ 1(BX), R11
	CMPQ R11, end+72(FP)
	JNE  insclassify
	ANDL lastMask+80(FP), R12      // the last block: real lanes only
	ANDL lastMask+80(FP), R13
insclassify:
	MOVL R13, R11
	NOTL R11
	ANDL R12, R11                  // better &^ worse: lanes tv dominates
	MOVL R11, (CX)(BX*4)
	ORL  R11, AX
	NOTL R12
	ANDL R12, R13                  // worse &^ better: lanes dominating tv
	JNZ  insdone

insnext:
	INCQ BX
	CMPQ BX, end+72(FP)
	JLT  insblock
	XORL R13, R13

insdone:
	VZEROUPPER
insret:
	MOVQ BX, block+88(FP)
	MOVL R13, dom+96(FP)
	MOVL AX, evicted+100(FP)
	RET
