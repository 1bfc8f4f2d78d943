// Package facts lets analyzers attach typed facts to functions and
// package-level objects and look them up again from a different
// package, mirroring the fact mechanism of golang.org/x/tools/go/
// analysis. The driver analyzes packages in dependency order (see
// load.Load), so when package core is analyzed, the facts its analyzer
// exported while visiting internal/bitset are already in the set.
//
// The one real problem a fact store must solve is object identity: when
// bitset is analyzed, its functions are *types.Func objects produced by
// type-checking bitset's source; when core is analyzed, the same
// functions appear as distinct objects decoded from bitset's export
// data. The x/tools implementation bridges the two with objectpath
// encoding; this one uses the simpler key that suffices for the
// analyzers in this repository — (package path, receiver type name,
// object name) — which uniquely names every package-level function,
// method, variable, constant, and type. Local objects (parameters,
// closure bindings) have no stable cross-package name and cannot carry
// facts; analyzers handle them during their own traversal.
package facts

import (
	"go/types"
	"reflect"
)

// A Fact is a typed datum attached to an object. The AFact method has
// no meaning beyond marking the type as a fact, exactly as in
// x/tools/go/analysis.
type Fact interface{ AFact() }

// key names one (object, fact type) slot.
type key struct {
	pkg  string // package path of the object
	recv string // receiver type name for methods, "" otherwise
	name string // object name
	typ  reflect.Type
}

// Set is an in-memory fact store shared by every pass of one driver
// run. The zero value is ready to use. A Set is not safe for concurrent
// use; the driver runs passes sequentially.
type Set struct {
	m map[key]Fact
}

// ExportObjectFact records fact for obj, replacing any previous fact of
// the same type. It reports whether obj can carry facts (package-level
// or method object with a stable name); facts on local objects are
// silently dropped, again matching the x/tools contract that analyzers
// must not rely on them.
func (s *Set) ExportObjectFact(obj types.Object, fact Fact) bool {
	k, ok := keyOf(obj, fact)
	if !ok {
		return false
	}
	if s.m == nil {
		s.m = make(map[key]Fact)
	}
	s.m[k] = fact
	return true
}

// ImportObjectFact copies the fact of ptr's type attached to obj into
// *ptr and reports whether one was found. ptr must be a non-nil pointer
// to a fact value, as with x/tools.
func (s *Set) ImportObjectFact(obj types.Object, ptr Fact) bool {
	k, ok := keyOf(obj, ptr)
	if !ok || s.m == nil {
		return false
	}
	f, ok := s.m[k]
	if !ok {
		return false
	}
	// *ptr = *f, via reflection: both are pointers to the same type.
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// keyOf computes the stable slot for obj, normalizing generic
// instantiations to their origin so that facts computed on the generic
// declaration are found through any instantiation.
func keyOf(obj types.Object, fact Fact) (key, bool) {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Ptr {
		return key{}, false
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		pkg := o.Pkg()
		if pkg == nil {
			return key{}, false // builtins like error.Error
		}
		recv := ""
		if r := o.Type().(*types.Signature).Recv(); r != nil {
			n := receiverNamed(r.Type())
			if n == nil {
				return key{}, false // interface method; facts live on impls
			}
			recv = n.Origin().Obj().Name()
		}
		return key{pkg.Path(), recv, o.Name(), t}, true
	case *types.Var:
		o = o.Origin()
		if o.Pkg() == nil || o.Parent() != o.Pkg().Scope() {
			return key{}, false // field, param, or local
		}
		return key{o.Pkg().Path(), "", o.Name(), t}, true
	case *types.TypeName, *types.Const:
		if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			return key{}, false
		}
		return key{obj.Pkg().Path(), "", obj.Name(), t}, true
	}
	return key{}, false
}

// receiverNamed unwraps a method receiver type to its named type, or
// nil for interface receivers.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
