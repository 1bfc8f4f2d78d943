package pragmacheck

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/pragma"
)

// TestKnownListSorted: knownList ranges over the pragma.Known map and
// ends up in every unrecognized-pragma diagnostic, so it must sort for
// priolint's output to be the same on every run. One call can meet the
// sorted order by chance; every one of 100 must.
func TestKnownListSorted(t *testing.T) {
	var names []string
	for name := range pragma.Known {
		names = append(names, "//"+name)
	}
	sort.Strings(names)
	want := strings.Join(names, ", ")
	for i := 0; i < 100; i++ {
		if got := knownList(); got != want {
			t.Fatalf("call %d: knownList() = %q, want %q", i, got, want)
		}
	}
}
