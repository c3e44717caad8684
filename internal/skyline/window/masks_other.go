//go:build !amd64

package window

// scanBlocks is the membership scan; amd64 overrides this with an AVX2
// dispatch.
func scanBlocks(view [][]float64, tv []float64, first, end int) (block int, mask uint32) {
	return scanPortable(view, tv, first, end)
}

// insertScan is the insert scan; amd64 overrides this with an AVX2 dispatch.
func insertScan(cols [][]float64, tv []float64, evicts []uint32, end int, lastMask uint32) (block int, dom, evicted uint32) {
	return insertScanPortable(cols, tv, evicts, end, lastMask)
}
