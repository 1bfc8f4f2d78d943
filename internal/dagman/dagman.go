// Package dagman reads and writes Condor DAGMan input files and job
// submit description files (JSDFs), and instruments them with job
// priorities the way the prio tool does (Section 3.2): a
//
//	VARS <job> jobpriority="<n>"
//
// line per job in the DAGMan file, and a
//
//	priority = $(jobpriority)
//
// attribute in each JSDF. The indirection through the jobpriority macro
// is deliberate — a single JSDF may be shared by jobs of several DAGMan
// files needing different priorities.
package dagman

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/dag"
)

// Job is one JOB statement.
type Job struct {
	Name       string
	SubmitFile string
	// Extra preserves trailing tokens (DIR <d>, NOOP, DONE).
	Extra []string
}

// Dep is one parent -> child dependency.
type Dep struct{ Parent, Child string }

// lineKind tags a preserved input line.
type lineKind uint8

const (
	lineOther lineKind = iota // comments, blanks, PARENT, CONFIG, RETRY, ...
	lineJob                   // JOB statement; id is the job
	lineVars                  // VARS statement without a jobpriority macro
	linePrio                  // VARS statement with one; id is its job
)

type line struct {
	raw  string
	kind lineKind
	id   int32
}

// File is a parsed DAGMan input file. It preserves enough of the
// original text to write an instrumented copy that differs only by the
// added or updated priority values.
//
// Every job name is resolved once, by the parser: after Parse, jobs are
// int32 ids (their index in Jobs, which is also their node in Graph's
// dag) and no later stage hashes a name.
type File struct {
	Jobs []Job
	// Splices lists SPLICE statements; resolve them with Flatten before
	// building the dependency graph.
	Splices []Splice
	lines   []line
	size    int            // length of String()
	index   map[string]int // job name -> Jobs index, shared with Graph's dag
	// The dependencies, one arc per PARENT/CHILD pair in file order,
	// repeats included: arc i runs from[i] -> to[i]. An id v >= 0 is
	// job v; v < 0 is the name undeclared[^v] that no JOB declares (a
	// splice, or an error for Graph to report).
	from, to   []int32
	undeclared []string
}

// parser is the state of one Parse: the file under construction, the
// reusable tokenizer output, and the names referenced before (or
// without) a JOB line, which index maps to ^k while parsing.
type parser struct {
	f       *File
	fields  []string
	ids     []int32
	pending []string
}

// Parse reads a DAGMan input file. The whole input is read into one
// string and every line, job name, and submit-file reference is a
// substring of it, so parsing costs a handful of allocations per file
// (the retained slices and the name index) plus one per job with
// trailing JOB tokens.
func Parse(r io.Reader) (*File, error) {
	return parseFrom(r, 0)
}

// ParseFile reads a DAGMan input file from disk, into a buffer of the
// file's exact size.
func ParseFile(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dagman: %w", err)
	}
	defer fh.Close()
	size := 0
	if fi, err := fh.Stat(); err == nil {
		size = int(fi.Size())
	}
	return parseFrom(fh, size)
}

func parseFrom(r io.Reader, size int) (*File, error) {
	var b strings.Builder
	b.Grow(size)
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("dagman: read: %w", err)
	}
	return parse(b.String())
}

func parse(text string) (*File, error) {
	// Presized from the line count: files as FromGraph writes them have
	// about one JOB line in two, decorated files fewer.
	lines := strings.Count(text, "\n") + 1
	p := parser{f: &File{
		lines: make([]line, 0, lines),
		index: make(map[string]int, lines/2),
		Jobs:  make([]Job, 0, lines/2),
	}}
	lineNo := 0
	for start := 0; start < len(text); {
		var raw string
		if end := strings.IndexByte(text[start:], '\n'); end < 0 {
			raw = text[start:]
			start = len(text)
		} else {
			raw = text[start : start+end]
			start += end + 1
		}
		// Like bufio.ScanLines, a \r\n terminator counts as a plain \n.
		raw = strings.TrimSuffix(raw, "\r")
		lineNo++
		if err := p.addLine(raw, lineNo); err != nil {
			return nil, err
		}
	}
	p.resolve()
	return p.f, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the bounds of the first field of s at or after i;
// start == len(s) when none is left. White space is what
// strings.Fields splits on: ASCII bytes are looked up in a table, and
// only a non-ASCII byte decodes a rune for unicode.IsSpace.
func nextField(s string, i int) (start, end int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if w, sp := runeSpace(s[i:]); sp {
			i += w
		} else {
			break
		}
	}
	start = i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
		} else if w, sp := runeSpace(s[i:]); !sp {
			i += w
		} else {
			break
		}
	}
	return start, i
}

// runeSpace decodes the rune s starts with and reports its width and
// whether unicode.IsSpace holds for it.
func runeSpace(s string) (int, bool) {
	r, w := utf8.DecodeRuneInString(s)
	return w, unicode.IsSpace(r)
}

// appendFields splits s around runs of white space into dst, exactly as
// strings.Fields does, and returns it. The fields are substrings of s.
func appendFields(dst []string, s string) []string {
	for i := 0; ; {
		start, end := nextField(s, i)
		if start == end {
			return dst
		}
		dst = append(dst, s[start:end])
		i = end
	}
}

// isKeyword reports whether strings.ToUpper(tok) == kw for an
// upper-case ASCII keyword, comparing bytes rather than building the
// upper-cased copy. Only a token longer than kw with non-ASCII bytes
// (ToUpper maps "ı" to "I" and "ſ" to "S") takes the general path.
func isKeyword(tok, kw string) bool {
	if len(tok) != len(kw) {
		return len(tok) > len(kw) && !isASCII(tok) && strings.ToUpper(tok) == kw
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return false
		}
	}
	return true
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// cloneTail copies the Extra tail of a statement out of the reusable
// field buffer; nil when there are no trailing tokens.
func cloneTail(fields []string) []string {
	if len(fields) == 0 {
		return nil
	}
	return append([]string(nil), fields...)
}

// intern returns the id of a job name: its Jobs index when declared,
// else ^k for the k-th name referenced ahead of its JOB line.
func (p *parser) intern(name string) int32 {
	if id, ok := p.f.index[name]; ok {
		return int32(id)
	}
	id := ^len(p.pending)
	p.pending = append(p.pending, name)
	p.f.index[name] = id
	return int32(id)
}

// resolve runs once at the end of the parse: names referenced before
// their JOB line take the job's id, and the rest (splices, missing
// jobs) become File.undeclared, leaving index with declared jobs only.
func (p *parser) resolve() {
	if len(p.pending) == 0 {
		return
	}
	f := p.f
	remap := make([]int32, len(p.pending))
	for k, name := range p.pending {
		if id := f.index[name]; id >= 0 {
			remap[k] = int32(id)
			continue
		}
		delete(f.index, name)
		remap[k] = int32(^len(f.undeclared))
		f.undeclared = append(f.undeclared, name)
	}
	fix := func(id *int32) {
		if *id < 0 {
			*id = remap[^*id]
		}
	}
	for i := range f.from {
		fix(&f.from[i])
		fix(&f.to[i])
	}
	for i := range f.lines {
		if f.lines[i].kind == linePrio {
			fix(&f.lines[i].id)
		}
	}
}

func (p *parser) addLine(raw string, lineNo int) error {
	f := p.f
	fields := appendFields(p.fields[:0], raw)
	p.fields = fields
	ln := line{raw: raw}
	switch {
	case len(fields) == 0 || fields[0][0] == '#':
	case isKeyword(fields[0], "JOB"):
		if len(fields) < 3 {
			return fmt.Errorf("dagman: line %d: JOB needs a name and a submit file", lineNo)
		}
		name := fields[1]
		if id, dup := f.index[name]; dup && id >= 0 {
			return fmt.Errorf("dagman: line %d: duplicate job %q", lineNo, name)
		}
		for _, s := range f.Splices {
			if s.Name == name {
				return fmt.Errorf("dagman: line %d: job %q collides with a splice name", lineNo, name)
			}
		}
		ln.kind, ln.id = lineJob, int32(len(f.Jobs))
		f.index[name] = len(f.Jobs)
		f.Jobs = append(f.Jobs, Job{Name: name, SubmitFile: fields[2], Extra: cloneTail(fields[3:])})
	case isKeyword(fields[0], "PARENT"):
		childAt := -1
		for i, tok := range fields {
			if strings.EqualFold(tok, "CHILD") {
				childAt = i
				break
			}
		}
		if childAt < 2 || childAt == len(fields)-1 {
			return fmt.Errorf("dagman: line %d: PARENT ... CHILD ... malformed", lineNo)
		}
		ids := p.ids[:0]
		for i, name := range fields[1:] {
			if i+1 != childAt {
				ids = append(ids, p.intern(name))
			}
		}
		p.ids = ids
		parents, children := ids[:childAt-1], ids[childAt-1:]
		for _, u := range parents {
			for _, v := range children {
				f.from = append(f.from, u)
				f.to = append(f.to, v)
			}
		}
	case isKeyword(fields[0], "VARS"):
		if len(fields) < 3 {
			return fmt.Errorf("dagman: line %d: VARS needs a job and an assignment", lineNo)
		}
		ln.kind = lineVars
		if job := fields[1]; !strings.EqualFold(job, "ALL_NODES") && hasPriorityMacro(raw) {
			ln.kind, ln.id = linePrio, p.intern(job)
		}
	case isKeyword(fields[0], "SPLICE"):
		if err := f.parseSplice(fields, lineNo); err != nil {
			return err
		}
	default:
		// RETRY, SCRIPT, CONFIG, DOT, MAXJOBS, PRIORITY, ... preserved.
	}
	f.lines = append(f.lines, ln)
	f.size += len(raw) + 1
	return nil
}

// The VARS grammar (SNIPPETS.md §2):
//
//	VARS <job | ALL_NODES> [PREPEND | APPEND] name="value" [name2="value2" ...]
//
// A name is ASCII letters, digits and underscores; a value is
// double-quoted, with \" and \\ escapes inside.

// macro locates one name="value" pair of a VARS line: raw[name0:name1]
// is the name and raw[val0:val1] the value between its quotes, escapes
// as written.
type macro struct{ name0, name1, val0, val1 int }

// firstMacro returns the offset where a VARS line's pairs begin: after
// the keyword, the job and an optional PREPEND or APPEND.
func firstMacro(raw string) int {
	_, end := nextField(raw, 0)
	_, end = nextField(raw, end)
	start, word := nextField(raw, end)
	if w := raw[start:word]; strings.EqualFold(w, "PREPEND") || strings.EqualFold(w, "APPEND") {
		return word
	}
	return end
}

// nextMacro scans the pair at or after offset i and returns it with the
// offset just past it; ok is false at the end of the line and at the
// first text that is not a well-formed pair.
func nextMacro(raw string, i int) (m macro, next int, ok bool) {
	i = skipBlanks(raw, i)
	m.name0 = i
	for i < len(raw) && isNameByte(raw[i]) {
		i++
	}
	m.name1 = i
	i = skipBlanks(raw, i)
	if m.name1 == m.name0 || i == len(raw) || raw[i] != '=' {
		return m, i, false
	}
	i = skipBlanks(raw, i+1)
	if i == len(raw) || raw[i] != '"' {
		return m, i, false
	}
	m.val0 = i + 1
	for i = m.val0; i < len(raw); i++ {
		switch raw[i] {
		case '\\':
			i++
		case '"':
			m.val1 = i
			return m, i + 1, true
		}
	}
	return m, i, false
}

func skipBlanks(s string, i int) int {
	for i < len(s) && s[i] < utf8.RuneSelf && asciiSpace[s[i]] {
		i++
	}
	return i
}

func isNameByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_'
}

// isPriority reports whether m names the jobpriority macro (macro names
// are case-insensitive).
func (m macro) isPriority(raw string) bool {
	return strings.EqualFold(raw[m.name0:m.name1], "jobpriority")
}

// hasPriorityMacro reports whether a VARS line defines jobpriority: a
// pair named so, not merely the word somewhere in the line.
func hasPriorityMacro(raw string) bool {
	for m, i, ok := nextMacro(raw, firstMacro(raw)); ok; m, i, ok = nextMacro(raw, i) {
		if m.isPriority(raw) {
			return true
		}
	}
	return false
}

// Job returns the named job, if declared.
func (f *File) Job(name string) (Job, bool) {
	i, ok := f.index[name]
	if !ok {
		return Job{}, false
	}
	return f.Jobs[i], true
}

// name returns the name behind a dependency endpoint id.
func (f *File) name(id int32) string {
	if id < 0 {
		return f.undeclared[^id]
	}
	return f.Jobs[id].Name
}

// Deps returns the dependencies by name, one per PARENT/CHILD pair in
// file order (repeats included), derived from the parsed arc list.
func (f *File) Deps() []Dep {
	if len(f.from) == 0 {
		return nil
	}
	deps := make([]Dep, len(f.from))
	for i := range deps {
		deps[i] = Dep{Parent: f.name(f.from[i]), Child: f.name(f.to[i])}
	}
	return deps
}

// Graph builds the dependency dag: one node per JOB in declaration
// order, one arc per PARENT/CHILD pair. Dependencies naming undeclared
// jobs are errors; duplicate dependencies are tolerated (DAGMan accepts
// them) and collapsed. The dag is frozen straight from the parsed arc
// list and shares the parser's name index.
func (f *File) Graph() (*dag.Frozen, error) {
	if len(f.Splices) > 0 {
		return nil, fmt.Errorf("dagman: file contains %d unresolved SPLICE statements; call Flatten first", len(f.Splices))
	}
	// The first bad dependency in file order decides the error: an
	// undeclared job here, or a self-loop, which dag.FromArcs reports.
	selfLoop := false
	for i, u := range f.from {
		v := f.to[i]
		if u < 0 {
			return nil, fmt.Errorf("dagman: dependency names undeclared job %q", f.name(u))
		}
		if v < 0 {
			return nil, fmt.Errorf("dagman: dependency names undeclared job %q", f.name(v))
		}
		if u == v {
			selfLoop = true
			break
		}
	}
	names := make([]string, len(f.Jobs))
	for i := range f.Jobs {
		names[i] = f.Jobs[i].Name
	}
	g, err := dag.FromArcs(names, f.index, f.from, f.to)
	switch {
	case err == nil:
		return g, nil
	case selfLoop:
		return nil, fmt.Errorf("dagman: %w", err)
	default:
		return nil, fmt.Errorf("dagman: dependencies are cyclic: %w", err)
	}
}

// noPriority marks a job that instrument leaves alone.
const noPriority = math.MinInt

// InstrumentIDs returns the text of the DAGMan file with job v's
// priority prio[v] (v indexes Jobs, which is also v's node in Graph's
// dag) set in a jobpriority macro. Only the value of an existing
// jobpriority macro is rewritten, so every other macro, the VARS
// spelling and the spacing survive; a job without one gets a
// VARS <job> jobpriority="<n>" line immediately after its JOB
// statement, which is where Fig. 3 shows it. VARS ALL_NODES lines are
// never rewritten.
func (f *File) InstrumentIDs(prio []int) []byte {
	if len(prio) != len(f.Jobs) {
		panic(fmt.Sprintf("dagman: InstrumentIDs got %d priorities for %d jobs", len(prio), len(f.Jobs)))
	}
	return f.appendInstrumented(nil, prio)
}

// Instrument is InstrumentIDs for priorities keyed by job name. Jobs
// absent from priorities are left alone; names that no JOB declares get
// a VARS line at the end, sorted by name, so the output is at least
// self-consistent.
func (f *File) Instrument(priorities map[string]int) string {
	prio := make([]int, len(f.Jobs))
	for v := range prio {
		prio[v] = noPriority
	}
	var missing []string
	for name, p := range priorities {
		if v, ok := f.index[name]; ok {
			prio[v] = p
		} else {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	buf := f.appendInstrumented(nil, prio)
	for _, name := range missing {
		buf = appendPriorityLine(buf, name, priorities[name])
	}
	return string(buf)
}

func (f *File) appendInstrumented(buf []byte, prio []int) []byte {
	// One pass up front: which jobs already carry a jobpriority macro
	// somewhere in the file, and the output size.
	has := make([]bool, len(f.Jobs))
	for _, ln := range f.lines {
		if ln.kind == linePrio && ln.id >= 0 {
			has[ln.id] = true
		}
	}
	var digits [20]byte
	size := f.size
	for v, p := range prio {
		if p != noPriority {
			size += len(strconv.AppendInt(digits[:0], int64(p), 10))
			if !has[v] {
				size += len(`Vars  jobpriority=""`) + len(f.Jobs[v].Name) + 1
			}
		}
	}
	buf = slices.Grow(buf, size)
	for _, ln := range f.lines {
		if ln.kind == linePrio && ln.id >= 0 && prio[ln.id] != noPriority {
			buf = appendRewritten(buf, ln.raw, prio[ln.id])
		} else {
			buf = append(buf, ln.raw...)
		}
		buf = append(buf, '\n')
		if ln.kind == lineJob && !has[ln.id] && prio[ln.id] != noPriority {
			buf = appendPriorityLine(buf, f.Jobs[ln.id].Name, prio[ln.id])
		}
	}
	return buf
}

// appendRewritten appends a VARS line with the value of each of its
// jobpriority macros replaced by p and every other byte as it was.
func appendRewritten(buf []byte, raw string, p int) []byte {
	last := 0
	for m, i, ok := nextMacro(raw, firstMacro(raw)); ok; m, i, ok = nextMacro(raw, i) {
		if m.isPriority(raw) {
			buf = append(buf, raw[last:m.val0]...)
			buf = strconv.AppendInt(buf, int64(p), 10)
			last = m.val1
		}
	}
	return append(buf, raw[last:]...)
}

func appendPriorityLine(buf []byte, job string, p int) []byte {
	buf = append(buf, "Vars "...)
	buf = append(buf, job...)
	buf = append(buf, ` jobpriority="`...)
	buf = strconv.AppendInt(buf, int64(p), 10)
	return append(buf, "\"\n"...)
}

// String reproduces the file text as parsed.
func (f *File) String() string {
	var b strings.Builder
	b.Grow(f.size)
	for _, ln := range f.lines {
		b.WriteString(ln.raw)
		b.WriteByte('\n')
	}
	return b.String()
}

// FromGraph renders a dag as a DAGMan input file, one JOB per node (in
// node order, so parsing the result reproduces the node numbering) and
// one PARENT/CHILD line per node with children. submitFile names each
// job's JSDF; if nil, "<name>.sub" is used.
func FromGraph(g *dag.Frozen, submitFile func(name string) string) *File {
	if submitFile == nil {
		submitFile = func(name string) string { return name + ".sub" }
	}
	var b strings.Builder
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(&b, "Job %s %s\n", g.Name(v), submitFile(g.Name(v)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		children := g.Children(v)
		if len(children) == 0 {
			continue
		}
		fmt.Fprintf(&b, "Parent %s Child", g.Name(v))
		for _, c := range children {
			fmt.Fprintf(&b, " %s", g.Name(int(c)))
		}
		b.WriteByte('\n')
	}
	f, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		panic(fmt.Sprintf("dagman: FromGraph produced unparseable text: %v", err))
	}
	return f
}
