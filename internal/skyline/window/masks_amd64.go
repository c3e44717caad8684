//go:build amd64

package window

// hasAVX2 selects the assembly scan kernels once at startup; the check
// covers CPU support and OS-enabled YMM state.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 is implemented in masks_amd64.s.
func cpuHasAVX2() bool

// scanAVX2 is scanPortable with the block's candidate lanes held in four
// YMM registers across the columns; it assumes BlockSize == 16.
// Implemented in masks_amd64.s.
//
//go:noescape
func scanAVX2(view [][]float64, tv []float64, first, end int) (block int, mask uint32)

// insertScanAVX2 is insertScanPortable with both compare directions held in
// YMM registers across the columns; it assumes BlockSize == 16. Implemented
// in masks_amd64.s.
//
//go:noescape
func insertScanAVX2(cols [][]float64, tv []float64, evicts []uint32, end int, lastMask uint32) (block int, dom, evicted uint32)

// scanBlocks is the membership scan, on the AVX2 kernel when available and
// the portable one otherwise.
func scanBlocks(view [][]float64, tv []float64, first, end int) (block int, mask uint32) {
	if hasAVX2 {
		return scanAVX2(view, tv, first, end)
	}
	return scanPortable(view, tv, first, end)
}

// insertScan is the insert scan, on the AVX2 kernel when available and the
// portable one otherwise.
func insertScan(cols [][]float64, tv []float64, evicts []uint32, end int, lastMask uint32) (block int, dom, evicted uint32) {
	if hasAVX2 {
		return insertScanAVX2(cols, tv, evicts, end, lastMask)
	}
	return insertScanPortable(cols, tv, evicts, end, lastMask)
}
