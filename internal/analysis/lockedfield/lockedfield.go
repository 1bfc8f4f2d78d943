// Package lockedfield enforces the `// guarded by <mu>` annotation on
// struct fields shared by concurrent callers: every selector access
// to an annotated field must happen in a function that locks the named
// mutex, is marked as lock-held by the conventional "...Locked" name
// suffix, or is a constructor of the struct. See repro/internal/analysis
// for the convention.
//
// Two annotation forms are accepted. The sibling form, `guarded by mu`,
// names a mutex field of the same struct. The qualified form,
// `guarded by Owner.mu`, names a mutex field of another struct in the
// same package — the shape of the serving layer's tenant cache, where
// tenantEntry's fields are guarded by the enclosing tenantCaches.mu
// because entries only exist inside that container. Both forms are
// validated: an annotation naming a type or field that does not exist
// is itself a diagnostic, so guards cannot silently rot.
package lockedfield

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockedfield",
	Doc: "check that fields annotated `// guarded by <mu>` are only accessed " +
		"under the named mutex (or in ...Locked helpers and constructors)",
	Run: run,
}

var guardedRE = regexp.MustCompile(`guarded by (\w+(?:\.\w+)?)`)

// guard describes one annotated field.
type guard struct {
	mutex string          // annotation text: "mu" or "Owner.mu"
	owner *types.TypeName // the struct's type name, for the constructor exemption
}

// muName is the mutex field's own name: the part after the dot for a
// qualified guard, the whole annotation for a sibling guard.
func (g guard) muName() string {
	if i := strings.LastIndex(g.mutex, "."); i >= 0 {
		return g.mutex[i+1:]
	}
	return g.mutex
}

func run(pass *analysis.Pass) (interface{}, error) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		analysis.WithStack(file, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := fieldObject(pass, sel)
			g, guarded := guards[obj]
			if !guarded {
				return true
			}
			if accessAllowed(pass, g, stack) {
				return true
			}
			pass.Reportf(sel.Sel.Pos(), "access to %s.%s (guarded by %s) outside a function that locks %s",
				g.owner.Name(), obj.Name(), g.mutex, g.mutex)
			return true
		})
	}
	return nil, nil
}

// collectGuards finds `// guarded by <mu>` annotations on struct fields
// declared in this package and resolves them to field objects. A bad
// annotation (no such sibling mutex field) is itself a diagnostic.
func collectGuards(pass *analysis.Pass) map[types.Object]guard {
	guards := make(map[types.Object]guard)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			owner, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if owner == nil {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, f := range st.Fields.List {
				mu, ok := annotation(f)
				if !ok {
					continue
				}
				if qualType, qualField, qualified := strings.Cut(mu, "."); qualified {
					if !typeHasField(pass, qualType, qualField) {
						pass.Reportf(f.Pos(), "field annotated `guarded by %s` but package %s has no struct type %s with field %s",
							mu, pass.Pkg.Name(), qualType, qualField)
						continue
					}
				} else if !fieldNames[mu] {
					pass.Reportf(f.Pos(), "field annotated `guarded by %s` but %s has no field %s",
						mu, owner.Name(), mu)
					continue
				}
				for _, name := range f.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = guard{mutex: mu, owner: owner}
					}
				}
			}
			return true
		})
	}
	return guards
}

// annotation extracts the guarded-by mutex name from a field's doc or
// line comment.
func annotation(f *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// typeHasField reports whether the package declares a struct type with
// the given name carrying a field of the given name.
func typeHasField(pass *analysis.Pass, typeName, fieldName string) bool {
	tn, ok := pass.Pkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == fieldName {
			return true
		}
	}
	return false
}

// fieldObject resolves a selector to the field it accesses, or nil.
func fieldObject(pass *analysis.Pass, sel *ast.SelectorExpr) types.Object {
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

// accessAllowed reports whether the enclosing function context may
// touch a field guarded by g.mutex.
func accessAllowed(pass *analysis.Pass, g guard, stack []ast.Node) bool {
	sawFunc := false
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			sawFunc = true
			if locksMutex(pass, f.Body, g.muName()) {
				return true
			}
		case *ast.FuncDecl:
			sawFunc = true
			if strings.HasSuffix(f.Name.Name, "Locked") {
				return true
			}
			if locksMutex(pass, f.Body, g.muName()) {
				return true
			}
			if isConstructor(pass, f, g.owner) {
				return true
			}
		}
	}
	// Accesses outside any function (package-level initializers) run
	// before the value can be shared.
	return !sawFunc
}

// locksMutex reports whether body contains a call <expr>.<mu>.Lock() or
// <expr>.<mu>.RLock() (or <mu>.Lock() for a promoted or local mutex).
func locksMutex(pass *analysis.Pass, body *ast.BlockStmt, mu string) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch recv := ast.Unparen(sel.X).(type) {
		case *ast.SelectorExpr:
			if recv.Sel.Name == mu {
				found = true
			}
		case *ast.Ident:
			if recv.Name == mu {
				found = true
			}
		}
		return !found
	})
	return found
}

// isConstructor reports whether f is a receiver-less function returning
// the owning struct type (by value or pointer): the value under
// construction is not yet shared, so field writes are safe.
func isConstructor(pass *analysis.Pass, f *ast.FuncDecl, owner *types.TypeName) bool {
	if f.Recv != nil || f.Type.Results == nil {
		return false
	}
	for _, res := range f.Type.Results.List {
		t := pass.TypesInfo.TypeOf(res.Type)
		if t == nil {
			continue
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj() == owner {
			return true
		}
	}
	return false
}
