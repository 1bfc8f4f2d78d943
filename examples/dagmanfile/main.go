// DAGMan round trip: exercises the prio tool workflow on real files.
//
// Writes a DAGMan input file and its job submit description files into a
// temporary directory (a small Montage-like mosaic), then performs
// exactly what `prio -inplace -submit` does: parse, schedule,
// instrument the DAGMan file with VARS jobpriority lines, and add
// priority = $(jobpriority) to every JSDF. Prints the resulting files.
//
// Run with: go run ./examples/dagmanfile
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/dagman"
	"repro/internal/workloads"
)

func main() {
	dir, err := os.MkdirTemp("", "prio-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// A small mosaic workload rendered as a DAGMan file. All jobs of
	// the same stage share one submit description file, which is why
	// the tool uses the jobpriority macro indirection.
	g := workloads.Montage(3, 1)
	submitFor := func(name string) string {
		switch {
		case name[0] != 'm':
			return "generic.sub"
		default:
			// stage name up to the first '.', e.g. mProject.4 -> mProject.sub
			stage := name
			for i, r := range name {
				if r == '.' {
					stage = name[:i]
					break
				}
			}
			return stage + ".sub"
		}
	}
	f := dagman.FromGraph(g, submitFor)
	dagPath := filepath.Join(dir, "montage.dag")
	if err := os.WriteFile(dagPath, []byte(f.String()), 0o644); err != nil {
		panic(err)
	}
	subs := submitFiles(f)
	for _, sub := range subs {
		text := "universe = vanilla\nexecutable = " + sub[:len(sub)-4] + "\nqueue\n"
		if err := os.WriteFile(filepath.Join(dir, sub), []byte(text), 0o644); err != nil {
			panic(err)
		}
	}
	fmt.Printf("wrote %s with %d jobs and %d submit files\n\n", dagPath, len(f.Jobs), len(subs))

	// --- what `prio -inplace -submit montage.dag` does ---
	parsed, err := dagman.ParseFile(dagPath)
	if err != nil {
		panic(err)
	}
	pg, err := parsed.Graph()
	if err != nil {
		panic(err)
	}
	sched := core.Prioritize(pg)
	if err := os.WriteFile(dagPath, parsed.InstrumentIDs(sched.Priority), 0o644); err != nil {
		panic(err)
	}
	for _, sub := range subs {
		path := filepath.Join(dir, sub)
		sf, err := dagman.ParseSubmitFile(path)
		if err != nil {
			panic(err)
		}
		sf.InstrumentPriority()
		if err := os.WriteFile(path, []byte(sf.String()), 0o644); err != nil {
			panic(err)
		}
	}

	// Show the first lines of the instrumented outputs.
	out, err := os.ReadFile(dagPath)
	if err != nil {
		panic(err)
	}
	fmt.Println("instrumented montage.dag (first 12 lines):")
	printHead(string(out), 12)
	sub, err := os.ReadFile(filepath.Join(dir, "mProject.sub"))
	if err != nil {
		panic(err)
	}
	fmt.Println("\ninstrumented mProject.sub:")
	fmt.Print(string(sub))
}

// submitFiles returns the distinct submit file names referenced by f,
// sorted, so the files are written and instrumented in a deterministic
// order (this used to iterate a dedup map directly).
func submitFiles(f *dagman.File) []string {
	seen := map[string]bool{}
	var subs []string
	for _, j := range f.Jobs {
		if !seen[j.SubmitFile] {
			seen[j.SubmitFile] = true
			subs = append(subs, j.SubmitFile)
		}
	}
	sort.Strings(subs)
	return subs
}

func printHead(s string, n int) {
	count := 0
	start := 0
	for i := 0; i < len(s) && count < n; i++ {
		if s[i] == '\n' {
			fmt.Println(s[start:i])
			start = i + 1
			count++
		}
	}
	if count == n {
		fmt.Println("...")
	}
}
