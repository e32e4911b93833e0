package enum

// CountSplit is CountStop with the split point given: mid == 0 sweeps
// once, and Ts < mid <= Te splits there whatever the skyline's size and
// GOMAXPROCS, so tests reach the split on small windows.
var CountSplit = countSplit

// CountSplitAt is countSplitAt, the split point CountStop chooses.
var CountSplitAt = countSplitAt
