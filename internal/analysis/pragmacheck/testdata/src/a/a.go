// Package a exercises pragmacheck: typo'd pragmas, pragmas with
// trailing text, retired pragmas, and recognized pragmas on
// declarations no analyzer reads them from.
package a

// typo swaps two letters: reads like a contract, enforces nothing.
//
//prio:nobec
func typo() {} // want `unrecognized pragma //prio:nobec enforces nothing`

// trailing text breaks the exact-match rule the analyzers use.
//
//prio:nobce on the hot path
func trailing() {} // want `unrecognized pragma //prio:nobce on the hot path enforces nothing`

// A retired pragma is no longer in pragma.Known: no analyzer reads it.
//
//prio:devirt
func retired() {} // want `unrecognized pragma //prio:devirt enforces nothing`

// The zero-alloc contract is measured at run time now, so its pragma is
// retired too.
//
//prio:noalloc
func retiredNoalloc() {} // want `unrecognized pragma //prio:noalloc enforces nothing`

// Response determinism is a runtime test of the daemon now, so its
// pragma is retired as well.
//
//prio:deterministic
func retiredDeterministic() {} // want `unrecognized pragma //prio:deterministic enforces nothing`

// A pragma on a type declaration binds to nothing.
//
//prio:pure
type notAFunc struct{} // want `pragma //prio:pure is not the doc comment of a function declaration, so the purity analyzer will never read it`

// A pragma on a var declaration binds to nothing either.
//
//prio:inline
var counter int // want `pragma //prio:inline is not the doc comment of a function declaration`

var (
	_ = typo
	_ = trailing
	_ = retired
	_ = retiredNoalloc
	_ = retiredDeterministic
	_ = notAFunc{}
	_ = counter
)
