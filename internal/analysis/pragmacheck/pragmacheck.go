// Package pragmacheck polices the //prio: annotation vocabulary. The
// other analyzers match their pragma by exact comment text, so a typo
// ("//prio:nobec") or a trailing word ("//prio:nobce please") reads
// like a contract in review but enforces nothing — the most dangerous
// failure mode an annotation scheme has. A pragma on a declaration it
// cannot apply to (a type, a var, a field) is equally inert: every
// recognized pragma binds to a function declaration's doc comment and
// nowhere else.
//
// The registry of recognized pragmas lives in
// repro/internal/analysis/pragma; adding an analyzer with a new
// annotation means adding it there, or pragmacheck flags every use.
package pragmacheck

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/pragma"
)

var Analyzer = &analysis.Analyzer{
	Name: "pragmacheck",
	Doc: "flag unrecognized //prio: pragmas (typos enforce nothing) and pragmas " +
		"placed where no analyzer will ever read them",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		// Anchor each doc comment group at the declaration it documents,
		// so diagnostics land on the declaration line; a pragma in a
		// free-floating or trailing comment is anchored at itself.
		anchors := make(map[*ast.CommentGroup]token.Pos)
		funcDocs := make(map[*ast.CommentGroup]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Doc != nil {
					anchors[n.Doc] = n.Name.Pos()
					funcDocs[n.Doc] = true
				}
			case *ast.GenDecl:
				if n.Doc != nil {
					anchors[n.Doc] = n.Pos()
				}
			case *ast.TypeSpec:
				if n.Doc != nil {
					anchors[n.Doc] = n.Pos()
				}
			case *ast.ValueSpec:
				if n.Doc != nil {
					anchors[n.Doc] = n.Pos()
				}
			case *ast.Field:
				if n.Doc != nil {
					anchors[n.Doc] = n.Pos()
				}
			}
			return true
		})
		for _, group := range file.Comments {
			for _, cm := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
				if !strings.HasPrefix(text, pragma.Prefix) {
					continue
				}
				pos, anchored := anchors[group]
				if !anchored {
					pos = cm.Pos()
				}
				switch {
				case pragma.Known[text] == "":
					pass.Reportf(pos,
						"unrecognized pragma //%s enforces nothing (known pragmas: %s)",
						text, knownList())
				case !funcDocs[group]:
					pass.Reportf(pos,
						"pragma //%s is not the doc comment of a function declaration, so the %s analyzer will never read it",
						text, pragma.Known[text])
				}
			}
		}
	}
	return nil, nil
}

func knownList() string {
	names := make([]string, 0, len(pragma.Known))
	for name := range pragma.Known {
		names = append(names, "//"+name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
