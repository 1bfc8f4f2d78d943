// Package a exercises pragmacheck: typo'd pragmas, pragmas with
// trailing text, retired pragmas, and recognized pragmas on
// declarations no analyzer reads them from.
package a

// typo drops an l: reads like a contract, enforces nothing.
//
//prio:noaloc
func typo() {} // want `unrecognized pragma //prio:noaloc enforces nothing`

// trailing text breaks the exact-match rule the analyzers use.
//
//prio:noalloc on the hot path
func trailing() {} // want `unrecognized pragma //prio:noalloc on the hot path enforces nothing`

// A retired pragma is no longer in pragma.Known: no analyzer reads it.
//
//prio:devirt
func retired() {} // want `unrecognized pragma //prio:devirt enforces nothing`

// A pragma on a type declaration binds to nothing.
//
//prio:pure
type notAFunc struct{} // want `pragma //prio:pure is not the doc comment of a function declaration, so the purity analyzer will never read it`

// A pragma on a var declaration binds to nothing either.
//
//prio:deterministic
var counter int // want `pragma //prio:deterministic is not the doc comment of a function declaration`

var (
	_ = typo
	_ = trailing
	_ = retired
	_ = notAFunc{}
	_ = counter
)
