// Package clean holds an //prio:inline helper that inlines into every
// hot caller: the analyzer must stay silent.
package clean

//prio:inline
func lift(a int) int { return a*2 + 1 }

//prio:nobce
func hot(xs []int) int {
	t := 0
	for i := 0; i < len(xs); i++ {
		t += lift(xs[i])
	}
	return t
}

// deferred still inlines: the compiler wraps the deferred call and
// inlines lift into the wrapper, which satisfies the contract.
//
//prio:nobce
func deferred() {
	defer lift(9)
}

var (
	_ = hot
	_ = deferred
)
