package main

// The prio-corpus workload: the prio CLI, one process per file, over
// the four paper-scale dags in two forms — fresh (JOB/PARENT lines as
// dagman.FromGraph writes them) and reinstrument (a first prio pass's
// output, decorated the way real workflows are, so prio replaces
// jobpriority values instead of appending them).

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/rng"
	"repro/internal/workloads"
)

var corpusDags = []struct {
	name string
	gen  func() *dag.Frozen
}{
	{"airsn", workloads.PaperAIRSN},
	{"inspiral", workloads.PaperInspiral},
	{"montage", workloads.PaperMontage},
	{"sdss", workloads.PaperSDSS},
}

var forms = []string{"fresh", "reinstrument"}

const (
	// decoratedShare of a reinstrument file's jobs carry extra VARS,
	// PRIORITY, RETRY, CATEGORY and SCRIPT lines; sharedShare of them
	// keep jobpriority on the same VARS line as other macros.
	decoratedShare = 0.30
	sharedShare    = 0.10
)

// corpusFile is one generated DAGMan file and what prio must make of it.
type corpusFile struct {
	dag, form string
	in, out   string // paths
	text      string
	jobs      int
	lines     int
	want      map[string]int  // core.Prioritize on the generator's dag
	shared    map[string]bool // jobpriority shares a VARS line (reinstrument)
}

func (f *corpusFile) key() string { return f.dag + "." + f.form }

type corpus struct {
	files []*corpusFile
	prio  string // built prio binary
}

// genCorpus writes the eight files into dir. The seed permutes each
// dag's declaration order and picks the decorated jobs; the job, arc
// and decoration counts do not depend on it.
func genCorpus(seed uint64, dir string) ([]*corpusFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := rng.New(seed)
	var files []*corpusFile
	for _, d := range corpusDags {
		src := base.Split()
		g := permuted(d.gen(), src)
		sched := core.Prioritize(g)
		want := make(map[string]int, g.NumNodes())
		for v := 0; v < g.NumNodes(); v++ {
			want[g.Name(v)] = sched.Priority[v]
		}
		fresh := dagman.FromGraph(g, nil).String()
		re, shared := reinstrumentText(d.name, fresh, want, g.NumNodes(), src)
		for _, form := range forms {
			text, sh := fresh, map[string]bool(nil)
			if form == "reinstrument" {
				text, sh = re, shared
			}
			f := &corpusFile{
				dag: d.name, form: form,
				in:   filepath.Join(dir, d.name+"."+form+".dag"),
				out:  filepath.Join(dir, d.name+"."+form+".out"),
				text: text, jobs: g.NumNodes(),
				lines: strings.Count(text, "\n"),
				want:  want, shared: sh,
			}
			if err := os.WriteFile(f.in, []byte(text), 0o644); err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	return files, nil
}

// permuted returns g with its nodes declared in a seeded random order.
func permuted(g *dag.Frozen, src *rng.Source) *dag.Frozen {
	n := g.NumNodes()
	perm := src.Perm(n)
	pos := make([]int, n)
	b := dag.NewWithCapacity(n)
	for i, old := range perm {
		pos[old] = i
		b.AddNode(g.Name(old))
	}
	for _, old := range perm {
		for _, c := range g.Children(old) {
			b.MustAddArc(pos[old], pos[c])
		}
	}
	return b.MustFreeze()
}

// reinstrumentText turns fresh DAGMan text into what a workflow looks
// like after an earlier prio pass and some hand editing: every job has
// one (stale) jobpriority; a seeded share of jobs carry quoted macros
// with \" escapes plus PRIORITY, RETRY, CATEGORY and SCRIPT lines; for
// some of those the jobpriority sits on the multi-macro VARS line.
func reinstrumentText(name, fresh string, want map[string]int, n int, src *rng.Source) (string, map[string]bool) {
	order := src.Perm(n)
	nShared, nDecorated := int(sharedShare*float64(n)), int(decoratedShare*float64(n))
	rankOf := make([]int, n) // position of job (declaration index) in order
	for i, v := range order {
		rankOf[v] = i
	}
	shared := map[string]bool{}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s workflow: priorities from an earlier prio pass, since edited by hand\n", name)
	b.WriteString("CONFIG workflow.config\n")
	b.WriteString("MAXJOBS cat0 50\n\n")
	job := 0
	for _, ln := range strings.SplitAfter(fresh, "\n") {
		if ln == "" {
			continue
		}
		b.WriteString(ln)
		if !strings.HasPrefix(ln, "Job ") {
			continue
		}
		j := strings.Fields(ln)[1]
		stale := n + 1 - want[j]
		r := rankOf[job]
		k := r % 7
		macros := fmt.Sprintf(`site="osg-%d" args="-i \"%s.in\" -o \"%s.out\" -v"`, k, j, j)
		switch {
		case r < nShared:
			shared[j] = true
			fmt.Fprintf(&b, "VARS %s site=\"osg-%d\" jobpriority=\"%d\" args=\"-i \\\"%s.in\\\" -v\" tag=\"a\\\\b\"\n", j, k, stale, j)
		case r < nDecorated:
			fmt.Fprintf(&b, "Vars %s jobpriority=\"%d\"\n", j, stale)
			fmt.Fprintf(&b, "VARS %s %s\n", j, macros)
		default:
			fmt.Fprintf(&b, "Vars %s jobpriority=\"%d\"\n", j, stale)
		}
		if r < nDecorated {
			fmt.Fprintf(&b, "PRIORITY %s %d\nRETRY %s 3\nCATEGORY %s cat%d\nSCRIPT PRE %s pre.sh %s\n", j, k, j, j, k, j, j)
		}
		if job%500 == 499 {
			fmt.Fprintf(&b, "# ---- stage boundary after %d jobs\n", job+1)
		}
		job++
	}
	return b.String(), shared
}

// --- output check -------------------------------------------------------

type macro struct{ name, value string }

// parseVars parses a VARS line semantically: VARS job [PREPEND|APPEND]
// name="value" ..., with \" and \\ escapes inside values. ok is false
// for a line that is not a well-formed VARS statement.
func parseVars(raw string) (job string, macros []macro, ok bool) {
	f := strings.Fields(raw)
	if len(f) < 3 || !strings.EqualFold(f[0], "VARS") {
		return "", nil, false
	}
	job = f[1]
	i := strings.Index(raw, job) + len(job)
	s := raw[i:]
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			return job, macros, true
		}
		if up := strings.ToUpper(s); strings.HasPrefix(up, "PREPEND ") || strings.HasPrefix(up, "APPEND ") {
			s = s[strings.IndexByte(s, ' '):]
			continue
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return job, macros, false
		}
		name := strings.TrimSpace(s[:eq])
		s = strings.TrimLeft(s[eq+1:], " \t")
		if s == "" || s[0] != '"' {
			return job, macros, false
		}
		end := -1
		for k := 1; k < len(s); k++ {
			if s[k] == '\\' {
				k++
				continue
			}
			if s[k] == '"' {
				end = k
				break
			}
		}
		if end < 0 {
			return job, macros, false
		}
		macros = append(macros, macro{name, s[1:end]})
		s = s[end+1:]
	}
}

func isVars(line string) bool {
	f := strings.Fields(line)
	return len(f) > 0 && strings.EqualFold(f[0], "VARS")
}

// fileCheck is the verdict on one instrumented output.
type fileCheck struct {
	jobs, failed int
	unexpected   []string
}

// checkInstrumented checks prio's output for one input: every job has
// exactly one jobpriority equal to want; every other line and every
// other macro survives byte for byte. A job whose jobpriority shared a
// VARS line with other macros and lost exactly those macros is the
// known File.Instrument defect: it fails, but is not unexpected.
func checkInstrumented(f *corpusFile, out string) fileCheck {
	fc := fileCheck{jobs: f.jobs}
	inLines := strings.Split(strings.TrimSuffix(f.text, "\n"), "\n")
	outLines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")

	var inOther, outOther []string
	inMac, outMac := map[string]map[string]int{}, map[string]map[string]int{}
	sharedOthers := map[string]map[string]int{}
	plain := map[string]int{} // VARS lines without jobpriority: in minus out
	jp := map[string][]string{}
	bad := func(format string, a ...any) {
		if len(fc.unexpected) < 5 {
			fc.unexpected = append(fc.unexpected, f.key()+": "+fmt.Sprintf(format, a...))
		}
	}
	scan := func(lines []string, other *[]string, mac map[string]map[string]int, isOut bool) {
		for _, ln := range lines {
			if !isVars(ln) {
				*other = append(*other, ln)
				continue
			}
			job, ms, ok := parseVars(ln)
			if !ok {
				bad("malformed VARS line %q", ln)
				continue
			}
			if mac[job] == nil {
				mac[job] = map[string]int{}
			}
			hasJP := false
			for _, m := range ms {
				if m.name == "jobpriority" {
					hasJP = true
					if isOut {
						jp[job] = append(jp[job], m.value)
					}
					continue
				}
				mac[job][m.name+"="+m.value]++
			}
			switch {
			case !hasJP && isOut:
				plain[ln]--
			case !hasJP:
				plain[ln]++
			case !isOut && len(ms) > 1:
				sharedOthers[job] = map[string]int{}
				for _, m := range ms {
					if m.name != "jobpriority" {
						sharedOthers[job][m.name+"="+m.value]++
					}
				}
			}
		}
	}
	scan(inLines, &inOther, inMac, false)
	scan(outLines, &outOther, outMac, true)

	if len(inOther) != len(outOther) {
		bad("%d non-VARS lines in, %d out", len(inOther), len(outOther))
	} else {
		for i := range inOther {
			if inOther[i] != outOther[i] {
				bad("line changed: %q -> %q", inOther[i], outOther[i])
				break
			}
		}
	}
	for ln, c := range plain {
		if c != 0 {
			bad("VARS line without jobpriority changed (%+d): %q", c, ln)
		}
	}
	for job, p := range f.want {
		vals := jp[job]
		okPrio := len(vals) == 1 && vals[0] == fmt.Sprint(p)
		okMacros := sameCounts(inMac[job], outMac[job])
		if okPrio && okMacros {
			continue
		}
		fc.failed++
		if f.shared[job] && okPrio && sameCounts(minus(inMac[job], sharedOthers[job]), outMac[job]) {
			continue
		}
		bad("job %s: jobpriority %v (want %d), macros in %v out %v", job, vals, p, inMac[job], outMac[job])
	}
	if len(fc.unexpected) > 0 {
		fc.failed = fc.jobs
	}
	return fc
}

func sameCounts(a, b map[string]int) bool {
	n := 0
	for k, v := range a {
		if v != 0 {
			n++
			if b[k] != v {
				return false
			}
		}
	}
	for _, v := range b {
		if v != 0 {
			n--
		}
	}
	return n == 0
}

func minus(a, b map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range a {
		if r := v - b[k]; r != 0 {
			out[k] = r
		}
	}
	return out
}

// --- the prio process ---------------------------------------------------

// prioRun is one prio invocation: wall time, CPU time (user + system)
// and peak resident set of the child, and a digest of what it wrote.
type prioRun struct {
	wall   time.Duration
	cpu    time.Duration
	rssKB  int64
	digest [32]byte
	out    []byte
}

func runPrio(bin string, f *corpusFile, keep bool) (prioRun, error) {
	cmd := exec.Command(bin, "-o", f.out, f.in)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t := time.Now()
	err := cmd.Run()
	wall := time.Since(t)
	if err != nil {
		return prioRun{}, fmt.Errorf("prio %s: %w: %s", f.key(), err, stderr.String())
	}
	r := prioRun{wall: wall, cpu: cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssKB = ru.Maxrss
	}
	out, err := os.ReadFile(f.out)
	if err != nil {
		return prioRun{}, err
	}
	r.digest = sha256.Sum256(out)
	if keep {
		r.out = out
	}
	return r, nil
}

func setupCorpus(e *env) (*corpus, float64, error) {
	c := &corpus{}
	setup, err := timeSetup(func() error {
		files, err := genCorpus(e.seed, filepath.Join(e.work, "corpus"))
		if err != nil {
			return err
		}
		bin, err := buildProg(e, "cmd/prio", filepath.Join(e.work, "bin"))
		if err != nil {
			return err
		}
		if _, err := runPrio(bin, files[0], false); err != nil { // warm-up
			return err
		}
		c.files, c.prio = files, bin
		return nil
	})
	return c, setup, err
}

// checkRuns verifies every run of one file: the first output fully, the
// rest by digest against it.
func checkRuns(f *corpusFile, runs []prioRun) (attempted, failed int, unexpected []string) {
	fc := checkInstrumented(f, string(runs[0].out))
	for _, r := range runs {
		attempted += f.jobs
		if r.digest != runs[0].digest {
			failed += f.jobs
			unexpected = append(unexpected, f.key()+": output differs between runs")
			continue
		}
		failed += fc.failed
	}
	return attempted, failed, append(unexpected, fc.unexpected...)
}

func runCorpus(e *env) (*outcome, error) {
	c, setup, err := setupCorpus(e)
	if err != nil {
		return nil, err
	}
	settle()
	runs := make([][]prioRun, len(c.files))
	// Per form, each pass's wall time and its prio processes' CPU time.
	wall, cpu := map[string][]float64{}, map[string][]float64{}
	var peakKB int64
	start := time.Now()
	for len(wall["fresh"]) < 3 || time.Since(start).Seconds() < e.seconds {
		pw, pc := map[string]float64{}, map[string]float64{}
		for i, f := range c.files {
			r, err := runPrio(c.prio, f, len(runs[i]) == 0)
			if err != nil {
				return nil, err
			}
			runs[i] = append(runs[i], r)
			peakKB = max(peakKB, r.rssKB)
			pw[f.form] += ms(r.wall)
			pc[f.form] += ms(r.cpu)
		}
		for _, form := range forms {
			wall[form], cpu[form] = append(wall[form], pw[form]), append(cpu[form], pc[form])
		}
	}
	n := len(wall["fresh"])
	logf("prio-corpus: %d passes in %.1fs", n, time.Since(start).Seconds())

	o := &outcome{}
	jobs := map[string]int{}
	for i, f := range c.files {
		att, fail, unexp := checkRuns(f, runs[i])
		o.attempted += att
		o.failed += fail
		o.unexpected = append(o.unexpected, unexp...)
		jobs[f.form] += f.jobs
		walls := make([]float64, len(runs[i]))
		for k, r := range runs[i] {
			walls[k] = ms(r.wall)
		}
		o.setN("cli.file_ms."+f.key(), median(walls), "ms", len(walls))
	}
	for _, form := range forms {
		o.setN("prio_"+form+"_jobs_per_s", float64(jobs[form])/(median(wall[form])/1000), "jobs/s", n)
		o.setN("pass_wall_ms."+form, median(wall[form]), "ms", n)
		o.setN("max_pass_wall_ms."+form, maxOf(wall[form]), "ms", n)
	}
	a, b := median(cpu["fresh"]), median(cpu["reinstrument"])
	o.setN("setup_s", setup, "s", setupRepeats)
	o.setN("peak_rss_mb", float64(peakKB)/1024, "MB", n*len(c.files))
	o.setN("throughput_per_cpu_s", float64(jobs["fresh"]+jobs["reinstrument"])/((a+b)/1000), "1/s", n)
	o.setN("pass_a_cpu_ms", a, "ms", n)
	o.setN("pass_b_cpu_ms", b, "ms", n)
	return o, nil
}
