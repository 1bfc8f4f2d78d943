package dag

// The unexported zero-alloc helpers, for the external allocation
// test (which imports workloads, and so cannot live in this package).
var (
	SortArcs           = sortArcs
	InsertionSortByPos = insertionSortByPos
)
