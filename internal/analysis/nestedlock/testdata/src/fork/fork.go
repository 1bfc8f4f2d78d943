// Package fork gives one lock five cycles through it whose order edges
// all come from one call site: under muA, forward calls many, which
// takes muB through muF. The analyzer reports one cycle per smallest
// lock, and which one depends on the order it walks muA's successors
// in.
package fork

import "sync"

var muA, muB, muC, muD, muE, muF sync.Mutex

func many() {
	muB.Lock()
	muB.Unlock()
	muC.Lock()
	muC.Unlock()
	muD.Lock()
	muD.Unlock()
	muE.Lock()
	muE.Unlock()
	muF.Lock()
	muF.Unlock()
}

func forward() {
	muA.Lock()
	many() // want `lock ordering cycle: muA \(fork.go:10\) → muB \(fork.go:10\) → muA \(fork.go:10\)`
	muA.Unlock()
}

// back takes muA under each of the others in turn.
func back() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
	muC.Lock()
	muA.Lock()
	muA.Unlock()
	muC.Unlock()
	muD.Lock()
	muA.Lock()
	muA.Unlock()
	muD.Unlock()
	muE.Lock()
	muA.Lock()
	muA.Unlock()
	muE.Unlock()
	muF.Lock()
	muA.Lock()
	muA.Unlock()
	muF.Unlock()
}
