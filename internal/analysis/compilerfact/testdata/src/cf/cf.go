// Package cf exercises every diagnostic class compilerfact parses: a
// bounds check the prover cannot eliminate, an inlinable function and
// one over budget, and an inlined call.
package cf

// index carries an unprovable bounds check.
func index(xs []int, i int) int { return xs[i] }

// tiny is well under the inline budget.
func tiny(a int) int { return a + 1 }

// big is pushed over the inline budget by the switch ladder.
func big(xs []int) int {
	t := 0
	for i, x := range xs {
		switch {
		case x > 100:
			t += x * 7
		case x > 50:
			t += x * 5
		case x > 25:
			t += x * 3
		case x > 12:
			t += x * 2
		case x > 6:
			t += x + i
		case x > 3:
			t += x - i
		default:
			t -= x
		}
		t ^= t >> 3
		t *= 17
		t += i
	}
	return t
}

// caller gets tiny inlined into it (and a call to big that stays).
func caller(xs []int) int { return tiny(len(xs)) + big(xs) }

// use keeps the unexported helpers alive.
func use(xs []int) int {
	return index(xs, 0) + caller(xs)
}

var _ = use
