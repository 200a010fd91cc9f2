//go:build amd64 && !purego

package vecmath

// blockSumsTotalAVX2 reproduces scalarBlockSumsTotal bit for bit (no FMA, no
// re-association); BlockSumsTotal validates the geometry it assumes.
//
//go:noescape
func blockSumsTotalAVX2(contrib, blockSums []float64, firstBlk, lastBlk int) float64

// prefetchT0 issues PREFETCHT0 over the first `lines` cache lines of row (or
// the whole row when it is shorter). See Prefetch.
//
//go:noescape
func prefetchT0(row []byte, lines int)
