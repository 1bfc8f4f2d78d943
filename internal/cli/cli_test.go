package cli

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLoadDagWorkloads(t *testing.T) {
	for spec, wantJobs := range map[string]int{
		"airsn":    773,
		"inspiral": 2988,
		"montage":  7881,
		"sdss":     48013,
	} {
		g, label, err := LoadDag(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if g.NumNodes() != wantJobs {
			t.Fatalf("%s: %d jobs, want %d", spec, g.NumNodes(), wantJobs)
		}
		if label != spec {
			t.Fatalf("%s: label %q", spec, label)
		}
	}
}

func TestLoadDagScaledLabel(t *testing.T) {
	g, label, err := LoadDag("airsn", 10)
	if err != nil {
		t.Fatal(err)
	}
	if label != "airsn/10" {
		t.Fatalf("label = %q", label)
	}
	if g.NumNodes() >= 773 {
		t.Fatal("scale did not shrink the dag")
	}
}

func TestLoadDagFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.dag")
	text := "Job a a.sub\nJob b b.sub\nParent a Child b\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	g, label, err := LoadDag(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || label != path {
		t.Fatalf("loaded %d nodes, label %q", g.NumNodes(), label)
	}
}

// TestLoadDagSplice: a DAGMan file that splices another is flattened,
// with the spliced file resolved relative to the outer file's
// directory, not the working directory; a spliced file that is missing
// is an error.
func TestLoadDagSplice(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{
		"outer.dag":    "Job x x.sub\nSplice S inner.dag\nParent x Child S\n",
		"inner.dag":    "Job a a.sub\nJob b b.sub\nParent a Child b\n",
		"dangling.dag": "Job x x.sub\nSplice S missing.dag\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g, _, err := LoadDag(filepath.Join(dir, "outer.dag"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumArcs() != 2 {
		t.Fatalf("flattened dag has %d jobs and %d arcs, want 3 and 2", g.NumNodes(), g.NumArcs())
	}
	if src := g.Sources(); len(src) != 1 || g.Name(int(src[0])) != "x" {
		t.Fatalf("sources = %v, want x alone", src)
	}
	if _, _, err := LoadDag(filepath.Join(dir, "dangling.dag"), 1); err == nil {
		t.Fatal("a missing spliced file was accepted")
	}
}

func TestLoadDagErrors(t *testing.T) {
	if _, _, err := LoadDag("/does/not/exist.dag", 1); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "cyclic.dag")
	os.WriteFile(bad, []byte("Job a a.sub\nJob b b.sub\nParent a Child b\nParent b Child a\n"), 0o644)
	if _, _, err := LoadDag(bad, 1); err == nil {
		t.Fatal("cyclic file accepted")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := ParseFloats("1, 2.5 ,10^-3,2^16")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2.5, 0.001, 65536}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParseFloatsErrors(t *testing.T) {
	for _, bad := range []string{"", " , ", "abc", "2^x", "x^2"} {
		if _, err := ParseFloats(bad); err == nil {
			t.Errorf("ParseFloats(%q) accepted", bad)
		}
	}
}

func TestLoadDagClassic(t *testing.T) {
	for _, name := range []string{"mesh", "reduction", "expansion", "butterfly", "pyramid"} {
		g, label, err := LoadDag(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumNodes() == 0 || label != name {
			t.Fatalf("%s: %d nodes, label %q", name, g.NumNodes(), label)
		}
	}
}
