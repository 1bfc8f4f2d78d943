package dag

// The unexported zero-alloc helper, for the external allocation test
// (which imports workloads, and so cannot live in this package).
var SortArcs = sortArcs
