// Command prio is the scheduling tool of Section 3.2: given a DAGMan
// input file, it prioritizes the jobs with the heuristic of Section 3.1
// and instruments the file (and optionally the referenced job submit
// description files) so that Condor assigns jobs in PRIO order.
//
// Usage:
//
//	prio [flags] input.dag [more.dag ...]
//
//	-o file      write the instrumented DAGMan file here (default: stdout)
//	-inplace     overwrite the input file instead
//	-submit      also instrument the referenced JSDFs in place
//	-dot file    write the prioritized dag in Graphviz format
//	-stats       print scheduling statistics to stderr
//	-theoretical report whether the idealized Section 2.2 algorithm handles the dag
//	-explain j   explain the priority of job j (comma list) on stderr
//
// Several DAGMan files may be given with -inplace; they are prioritized
// concurrently, each through the same per-file pipeline as a single
// input. With -submit, each distinct JSDF is instrumented once, after
// every DAGMan file is written, however many inputs share it. -o, -dot,
// -explain and -theoretical name one file's outputs, so prio rejects
// them with several inputs, and -o with -inplace.
//
// A workflow with SPLICE statements is written out flattened: the
// spliced jobs inlined, and only JOB, NODE, VARS and PARENT lines
// kept. prio therefore refuses to overwrite (with -inplace, or -o
// naming the input) a spliced file that has comments or other
// statements, and names them in its error; written to stdout or
// another file, the flattened text comes with a warning on stderr
// naming them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dagman"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prio:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("prio", flag.ContinueOnError)
	out := fs.String("o", "", "output path for the instrumented DAGMan file (default stdout)")
	inplace := fs.Bool("inplace", false, "overwrite the input file")
	submit := fs.Bool("submit", false, "also instrument referenced submit description files in place")
	dotOut := fs.String("dot", "", "write the prioritized dag in Graphviz dot format")
	showStats := fs.Bool("stats", false, "print scheduling statistics to stderr")
	theoretical := fs.Bool("theoretical", false, "also report whether the idealized Section 2.2 algorithm handles this dag")
	explain := fs.String("explain", "", "explain the priority assigned to this job (comma list of job names)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: prio [flags] input.dag [more.dag ...]")
	}
	if *inplace && *out != "" {
		return fmt.Errorf("-o cannot be combined with -inplace, which rewrites the input file")
	}
	inputs := fs.Args()
	if len(inputs) > 1 {
		if !*inplace {
			return fmt.Errorf("multiple inputs require -inplace")
		}
		for _, f := range []struct {
			name string
			set  bool
		}{{"dot", *dotOut != ""}, {"explain", *explain != ""}, {"theoretical", *theoretical}} {
			if f.set {
				return fmt.Errorf("-%s needs a single input file", f.name)
			}
		}
	}

	c := &config{out: *out, inplace: *inplace, submit: *submit}
	if len(inputs) > 1 {
		return runParallel(inputs, c, *showStats)
	}

	input := inputs[0]
	sched, submits, elapsed, err := c.prioritizeFile(input, w)
	if err != nil {
		return err
	}
	if err := instrumentSubmitFiles(submits); err != nil {
		return err
	}
	g := sched.Graph
	if *dotOut != "" {
		dot := g.DOT(filepath.Base(input), func(v int) string {
			return fmt.Sprintf("label=\"%s\\np=%d\"", g.Name(v), sched.Priority[v])
		})
		if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
			return err
		}
	}
	if *showStats {
		printStats(sched, elapsed)
	}
	if *explain != "" {
		for _, name := range strings.Split(*explain, ",") {
			name = strings.TrimSpace(name)
			v := g.IndexOf(name)
			if v < 0 {
				return fmt.Errorf("cannot explain %q: no such job", name)
			}
			fmt.Fprint(os.Stderr, sched.Explain(v))
		}
	}
	if *theoretical {
		if _, err := core.TheoreticalSchedule(g); err != nil {
			fmt.Fprintf(os.Stderr, "theoretical algorithm: FAILS (%v); the heuristic schedule above is the graceful fallback\n", err)
		} else {
			fmt.Fprintln(os.Stderr, "theoretical algorithm: succeeds; the schedule is IC-optimal")
		}
	}
	return nil
}

// config is what every input file is prioritized with.
type config struct {
	out             string
	inplace, submit bool
}

// prioritizeFile runs the pipeline on one DAGMan file — parse, flatten
// any splices, freeze the graph, prioritize, instrument — and writes
// the instrumented text over the input with -inplace (or when -o names
// the input), to -o's path when one is given, and to w otherwise,
// streaming it in every case. It returns the schedule, with
// -submit the JSDFs the file references (for the caller to instrument
// once every DAGMan file is written), and the time prioritization took.
func (c *config) prioritizeFile(input string, w io.Writer) (*core.Schedule, []submitRef, time.Duration, error) {
	f, err := dagman.ParseFile(input)
	if err != nil {
		return nil, nil, 0, err
	}
	overwrite := c.inplace || c.out != "" && sameFile(c.out, input)
	if len(f.Splices) > 0 {
		// Spliced workflows are flattened first; the instrumented output
		// is the flattened file, which is what DAGMan executes anyway.
		// It keeps no comment and no statement but JOB, NODE, VARS and
		// PARENT, of the input or of any file it splices, so it may not
		// replace an input when one of those files has others; written
		// anywhere else, prio warns on stderr of what it dropped.
		drops := f.FlattenDrops()
		fromDisk := dagman.LoadSplice(filepath.Dir(input))
		load := func(file string) (*dagman.File, error) {
			inner, err := fromDisk(file)
			if err == nil {
				for _, d := range inner.FlattenDrops() {
					drops = append(drops, file+" "+d)
				}
			}
			return inner, err
		}
		f, err = f.Flatten(load)
		if err != nil {
			return nil, nil, 0, err
		}
		if len(drops) > 0 {
			if overwrite {
				return nil, nil, 0, fmt.Errorf("%s: not overwritten: its flattened SPLICEs would drop %s; write the output to stdout or another file", input, listDrops(drops))
			}
			fmt.Fprintf(os.Stderr, "prio: warning: %s: its flattened SPLICEs drop %s\n", input, listDrops(drops))
		}
	}
	g, err := f.Graph()
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	sched := core.Prioritize(g)
	elapsed := time.Since(start)

	write := func(w io.Writer) error { return f.WriteInstrumented(w, sched.Priority) }
	switch {
	case overwrite:
		err = replaceFile(input, write)
	case c.out != "":
		err = createFile(c.out, write)
	default:
		err = write(w)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	var submits []submitRef
	if c.submit {
		if submits, err = submitRefs(f, input); err != nil {
			return nil, nil, 0, err
		}
	}
	return sched, submits, elapsed, nil
}

// listDrops names the first few statements FlattenDrops reports, and
// how many more there are.
func listDrops(drops []string) string {
	const shown = 6
	if len(drops) <= shown {
		return strings.Join(drops, ", ")
	}
	return fmt.Sprintf("%s and %d more", strings.Join(drops[:shown], ", "), len(drops)-shown)
}

// runParallel prioritizes several DAGMan files concurrently, rewriting
// each in place. With -submit the JSDFs of the whole batch are
// instrumented afterwards, each distinct one once: two goroutines
// rewriting a shared JSDF could otherwise interleave their reads and
// writes and lose its contents.
func runParallel(inputs []string, c *config, showStats bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(inputs))
	submits := make([][]submitRef, len(inputs))
	sem := make(chan struct{}, runtime.NumCPU())
	start := time.Now()
	for i, input := range inputs {
		wg.Add(1)
		go func(i int, input string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var err error
			if _, submits[i], _, err = c.prioritizeFile(input, nil); err != nil {
				errs[i] = fmt.Errorf("%s: %w", input, err)
			}
		}(i, input)
	}
	wg.Wait()
	errs = append(errs, instrumentSubmitFiles(slices.Concat(submits...)))
	// Report every failed input, not just the first: with -inplace the
	// successful files have already been rewritten, so the caller needs
	// the full list of the ones that were not.
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if showStats {
		fmt.Fprintf(os.Stderr, "prioritized %d files in %v\n", len(inputs), time.Since(start).Round(time.Microsecond))
	}
	return nil
}

// submitRef is one JSDF reference: the file's absolute path, and for
// error messages the DAGMan file and job that name it.
type submitRef struct{ path, input, job string }

// submitRefs lists the JSDFs the DAGMan file input references, one ref
// per distinct name. Relative paths are resolved against input's
// directory.
func submitRefs(f *dagman.File, input string) ([]submitRef, error) {
	var refs []submitRef
	seen := make(map[string]bool)
	for _, j := range f.Jobs {
		if seen[j.SubmitFile] {
			continue
		}
		seen[j.SubmitFile] = true
		path := j.SubmitFile
		if !filepath.IsAbs(path) {
			path = filepath.Join(filepath.Dir(input), path)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return nil, err
		}
		refs = append(refs, submitRef{abs, input, j.Name})
	}
	return refs, nil
}

// instrumentSubmitFiles rewrites each distinct JSDF in refs, once, with
// a priority = $(jobpriority) attribute. It reports every JSDF it could
// not rewrite, not just the first.
func instrumentSubmitFiles(refs []submitRef) error {
	done := make(map[string]bool)
	var errs []error
	for _, r := range refs {
		if done[r.path] {
			continue
		}
		done[r.path] = true
		sf, err := dagman.ParseSubmitFile(r.path)
		if err == nil {
			sf.InstrumentPriority()
			err = replaceFile(r.path, func(w io.Writer) error {
				_, err := io.WriteString(w, sf.String())
				return err
			})
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: submit file for job %s: %w", r.input, r.job, err))
		}
	}
	return errors.Join(errs...)
}

// createFile writes path, created or truncated, with what write
// produces.
func createFile(path string, write func(io.Writer) error) error {
	out, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// sameFile reports whether paths a and b both exist and name the same
// file.
func sameFile(a, b string) bool {
	fa, err := os.Stat(a)
	if err != nil {
		return false
	}
	fb, err := os.Stat(b)
	return err == nil && os.SameFile(fa, fb)
}

// replaceFile rewrites the existing file path with what write produces
// and never leaves it part-written. The new text goes to a temporary
// file in the same directory, with path's permission bits, which is
// renamed over path only once it is complete and synced; on any error
// path is untouched and the temporary file removed. A symlinked path
// has its target replaced, so the link survives.
func replaceFile(path string, write func(io.Writer) error) error {
	target, err := filepath.EvalSymlinks(path)
	if err != nil {
		return err
	}
	info, err := os.Stat(target)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(target), "."+filepath.Base(target)+".prio-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Chmod(info.Mode().Perm())
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), target)
	}
	if err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	return nil
}

func printStats(s *core.Schedule, elapsed time.Duration) {
	g := s.Graph
	fmt.Fprintf(os.Stderr, "jobs: %d  dependencies: %d  shortcuts removed: %d\n",
		g.NumNodes(), g.NumArcs(), len(s.Decomposition.Shortcuts))
	families := map[string]int{}
	bip := 0
	for _, cs := range s.Components {
		families[cs.Family.String()]++
		if cs.Comp.Bipartite {
			bip++
		}
	}
	fmt.Fprintf(os.Stderr, "components: %d (%d via bipartite fast path) by family: %v\n",
		len(s.Components), bip, families)
	fmt.Fprintf(os.Stderr, "scheduling time: %v\n", elapsed)
}
