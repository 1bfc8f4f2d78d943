// Package clean uses every recognized pragma correctly, plus prose
// that merely mentions one — pragmacheck must stay silent.
package clean

// run documents the `//prio:nobce` contract in prose before carrying
// it; mentioning a pragma mid-sentence is not a pragma.
//
//prio:nobce
func run(xs []int) int {
	t := 0
	for i := 0; i < len(xs); i++ {
		t += xs[i]
	}
	return t
}

//prio:pure
//prio:inline
func double(x int) int { return x * 2 }

var (
	_ = run
	_ = double
)
