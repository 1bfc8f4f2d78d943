package main

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/dagman"
)

// Regression test for a map-order fix: submit files used to be
// written by ranging over a dedup map, so creation and instrumentation
// order varied between runs. submitFiles must return the distinct
// names sorted.
func TestSubmitFilesSortedAndDistinct(t *testing.T) {
	f, err := dagman.Parse(strings.NewReader(
		"Job c z.sub\nJob a a.sub\nJob b m.sub\nJob d a.sub\nJob e m.sub\n"))
	if err != nil {
		t.Fatal(err)
	}
	got := submitFiles(f)
	want := []string{"a.sub", "m.sub", "z.sub"}
	if len(got) != len(want) {
		t.Fatalf("submitFiles = %v, want %v", got, want)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("submitFiles not sorted: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("submitFiles = %v, want %v", got, want)
		}
	}
}
