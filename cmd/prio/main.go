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
//	-naive       use the pre-engineering naive Combine phase (Section 3.5)
//	-parallel N  Recurse-phase workers (1 = sequential reference; <=0 = all CPUs)
//	-cache       memoize component schedules and the transitive reduction
//
// Several DAGMan files may be given with -inplace; they are prioritized
// in parallel.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dagman"
	"repro/internal/decompose"
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
	naive := fs.Bool("naive", false, "use the naive Combine implementation")
	parallel := fs.Int("parallel", 1, "Recurse-phase worker count (1 = sequential reference, <=0 = all CPUs)")
	useCache := fs.Bool("cache", false, "memoize component schedules and the transitive reduction")
	theoretical := fs.Bool("theoretical", false, "also report whether the idealized Section 2.2 algorithm handles this dag")
	explain := fs.String("explain", "", "explain the priority assigned to this job (comma list of job names)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: prio [flags] input.dag [more.dag ...]")
	}
	if fs.NArg() > 1 {
		if !*inplace {
			return fmt.Errorf("multiple inputs require -inplace")
		}
		return runParallel(fs.Args(), *submit, *naive, *parallel, *useCache, *showStats)
	}
	input := fs.Arg(0)

	f, err := dagman.ParseFile(input)
	if err != nil {
		return err
	}
	if len(f.Splices) > 0 {
		// Spliced workflows are flattened first; the instrumented output
		// is the flattened file, which is what DAGMan executes anyway.
		f, err = f.Flatten(dagman.LoadSplice(filepath.Dir(input)))
		if err != nil {
			return err
		}
	}
	g, err := f.Graph()
	if err != nil {
		return err
	}

	opts := core.Options{Parallel: *parallel}
	if *parallel <= 0 {
		opts.Parallel = -1 // one worker per logical CPU
	}
	if *naive {
		opts.Combine = core.CombineNaive
	}
	if *useCache {
		opts.Cache = core.NewCache()
	}
	start := time.Now()
	sched := core.PrioritizeOpts(g, opts)
	elapsed := time.Since(start)

	text := f.InstrumentIDs(sched.Priority)

	switch {
	case *inplace:
		if err := os.WriteFile(input, text, 0o644); err != nil {
			return err
		}
	case *out != "":
		if err := os.WriteFile(*out, text, 0o644); err != nil {
			return err
		}
	default:
		if _, err := w.Write(text); err != nil {
			return err
		}
	}

	if *submit {
		if err := instrumentSubmitFiles(f, filepath.Dir(input)); err != nil {
			return err
		}
	}

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
		if opts.Cache != nil {
			cs := opts.Cache.Stats()
			fmt.Fprintf(os.Stderr, "schedule cache: %d hits, %d misses (%.1f%% hit rate), %d distinct shapes\n",
				cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Entries)
		}
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
		var dopts decompose.Options
		if opts.Cache != nil {
			// Share the Step 1 reduction already computed by the heuristic.
			dopts.ReduceCache = opts.Cache.ReduceCache()
		}
		if _, err := core.TheoreticalScheduleOpts(g, dopts); err != nil {
			fmt.Fprintf(os.Stderr, "theoretical algorithm: FAILS (%v); the heuristic schedule above is the graceful fallback\n", err)
		} else {
			fmt.Fprintln(os.Stderr, "theoretical algorithm: succeeds; the schedule is IC-optimal")
		}
	}
	return nil
}

// runParallel prioritizes several DAGMan files concurrently, rewriting
// each in place. With -cache one schedule cache (and its embedded
// reduction cache) is shared by every file, so repeated component
// shapes across a batch of workflows are scheduled once.
func runParallel(inputs []string, submit, naive bool, parallel int, useCache, showStats bool) error {
	opts := core.Options{Parallel: parallel}
	if parallel <= 0 {
		opts.Parallel = -1
	}
	if naive {
		opts.Combine = core.CombineNaive
	}
	if useCache {
		opts.Cache = core.NewCache()
	}
	var wg sync.WaitGroup
	errs := make([]error, len(inputs))
	sem := make(chan struct{}, runtime.NumCPU())
	start := time.Now()
	for i, input := range inputs {
		wg.Add(1)
		go func(i int, input string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := instrumentInPlace(input, submit, opts); err != nil {
				errs[i] = fmt.Errorf("%s: %w", input, err)
			}
		}(i, input)
	}
	wg.Wait()
	// Report every failed input, not just the first: with -inplace the
	// successful files have already been rewritten, so the caller needs
	// the full list of the ones that were not.
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if showStats {
		fmt.Fprintf(os.Stderr, "prioritized %d files in %v\n", len(inputs), time.Since(start).Round(time.Microsecond))
		if opts.Cache != nil {
			cs := opts.Cache.Stats()
			fmt.Fprintf(os.Stderr, "schedule cache: %d hits, %d misses (%.1f%% hit rate), %d distinct shapes\n",
				cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Entries)
		}
	}
	return nil
}

// instrumentInPlace runs the pipeline on one DAGMan file and rewrites
// it (and optionally its submit files) in place.
func instrumentInPlace(input string, submit bool, opts core.Options) error {
	f, err := dagman.ParseFile(input)
	if err != nil {
		return err
	}
	if len(f.Splices) > 0 {
		f, err = f.Flatten(dagman.LoadSplice(filepath.Dir(input)))
		if err != nil {
			return err
		}
	}
	g, err := f.Graph()
	if err != nil {
		return err
	}
	sched := core.PrioritizeOpts(g, opts)
	if err := os.WriteFile(input, f.InstrumentIDs(sched.Priority), 0o644); err != nil {
		return err
	}
	if submit {
		return instrumentSubmitFiles(f, filepath.Dir(input))
	}
	return nil
}

// instrumentSubmitFiles rewrites each distinct JSDF referenced by the
// DAGMan file with a priority = $(jobpriority) attribute. Paths are
// resolved relative to the DAGMan file's directory.
func instrumentSubmitFiles(f *dagman.File, dir string) error {
	done := make(map[string]bool)
	for _, j := range f.Jobs {
		path := j.SubmitFile
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		if done[path] {
			continue
		}
		done[path] = true
		sf, err := dagman.ParseSubmitFile(path)
		if err != nil {
			return fmt.Errorf("submit file for job %s: %w", j.Name, err)
		}
		sf.InstrumentPriority()
		if err := os.WriteFile(path, []byte(sf.String()), 0o644); err != nil {
			return err
		}
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
