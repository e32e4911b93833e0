package vct

// BuildSplit is BuildScratchStop with the split point given: mid == 0
// builds serially, and w.Start < mid <= w.End splits there whatever the
// window's size and GOMAXPROCS, so tests reach the stitch on small
// windows. (g, k, w) must be valid.
var BuildSplit = buildScratch

// SplitAt is splitAt, the split point the exported builds choose.
var SplitAt = splitAt
