// Package bad is a fixture for the priolint driver test: it contains
// one violation each for two package analyzers that can manifest in a
// self-contained package.
package bad

import (
	"os"
	"time"
)

// Clean drops the error of os.Remove: errpropagation violation.
func Clean(path string) {
	os.Remove(path)
}

// Stamp is annotated pure but reads the clock: purity violation.
//
//prio:pure
func Stamp() int64 {
	return time.Now().UnixNano()
}
