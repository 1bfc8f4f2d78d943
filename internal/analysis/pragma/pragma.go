// Package pragma centralizes the //prio: annotation vocabulary the
// analyzers enforce. Every contract annotation in the tree is a doc
// comment of the exact form
//
//	//prio:nobce
//
// on a function declaration; this package owns the parsing (shared by
// every analyzer) and the registry of recognized names (consumed by
// the pragmacheck analyzer, which flags typos and misplaced pragmas
// that would otherwise silently enforce nothing).
package pragma

import (
	"go/ast"
	"strings"
)

// Prefix is the marker every contract annotation starts with, after
// the comment slashes.
const Prefix = "prio:"

// Known maps each recognized pragma to the analyzer that enforces it.
// A pragma outside this map is a typo: it reads like a contract but no
// analyzer will ever check it.
var Known = map[string]string{
	"prio:pure":   "purity",
	"prio:nobce":  "bce",
	"prio:inline": "inline",
}

// Of returns the pragma lines of a comment group, in order: every
// comment whose text (after the slashes, whitespace-trimmed) starts
// with Prefix, including unrecognized ones. A nil group yields nil.
func Of(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, cm := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
		if strings.HasPrefix(text, Prefix) {
			out = append(out, text)
		}
	}
	return out
}

// Has reports whether the comment group carries the exact pragma name
// (e.g. "prio:nobce"). It matches the same way the analyzers'
// historical annotated() helpers did: the whole trimmed comment text
// must equal the pragma.
func Has(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, cm := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(cm.Text, "//")) == name {
			return true
		}
	}
	return false
}
