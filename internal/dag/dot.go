package dag

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the graph in Graphviz dot syntax. Arcs are oriented
// parent -> child. An optional attribute function may decorate nodes
// (e.g. with the priority assigned by the scheduler); it may return ""
// for no attributes.
func (f *Frozen) DOT(name string, nodeAttrs func(v int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=BT;\n") // paper draws arcs oriented upward
	for v := 0; v < f.NumNodes(); v++ {
		attrs := ""
		if nodeAttrs != nil {
			attrs = nodeAttrs(v)
		}
		if attrs != "" {
			fmt.Fprintf(&b, "  %q [%s];\n", f.names[v], attrs)
		} else {
			fmt.Fprintf(&b, "  %q;\n", f.names[v])
		}
	}
	for _, a := range f.Arcs() {
		fmt.Fprintf(&b, "  %q -> %q;\n", f.names[a.From], f.names[a.To])
	}
	b.WriteString("}\n")
	return b.String()
}

// SortedNames returns the node names in lexicographic order (handy for
// deterministic test assertions).
func (f *Frozen) SortedNames() []string {
	out := append([]string(nil), f.names...)
	sort.Strings(out)
	return out
}
