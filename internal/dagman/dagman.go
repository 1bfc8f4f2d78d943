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
//
// A parsed File keeps the input text whole, and every job name and
// submit-file reference is a substring of it. Beside the text it holds
// no per-line record, only what a later stage needs, in pointer-free
// arrays: the dependency arcs as pairs of int32 job ids; a file-ordered
// edit list of the places an instrumented copy differs from the text
// (the value of each jobpriority macro, and the point after each JOB
// line where a job without one gets its VARS line); and an
// open-addressing table from job name to id, hashed with a seed drawn
// once per process. Instrumenting copies the text between edits in
// bulk; String is the text itself.
package dagman

import (
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/dag"
)

// Job is one JOB statement, or one NODE statement (HTCondor's newer
// spelling of the same thing).
type Job struct {
	Name       string
	SubmitFile string
	// Extra preserves trailing tokens (DIR <d>, NOOP, DONE).
	Extra []string
}

// Dep is one parent -> child dependency.
type Dep struct{ Parent, Child string }

// File is a parsed DAGMan input file. It keeps the text it was parsed
// from and the few places where an instrumented copy differs from it,
// so that copy differs only by the added or updated priority values.
//
// Every job name is resolved once, by the parser: after Parse, jobs are
// int32 ids (their index in Jobs, which is also their node in Graph's
// dag) and no later stage hashes a name.
type File struct {
	Jobs []Job
	// Splices lists SPLICE statements; resolve them with Flatten before
	// building the dependency graph.
	Splices []Splice
	// text is the input with every line ending in \n (see normalize):
	// String returns it, and every name above is a substring of it.
	text string
	// edits lists, in text order, where an instrumented copy differs
	// from text.
	edits []edit
	// slots is the name table: an open-addressing hash table, at most
	// half full, whose slot holds 32 bits of a name's hash (never zero)
	// over the name's id, or 0 when empty. used counts the full slots.
	slots []uint64
	used  int
	// The dependencies, one arc per PARENT/CHILD pair in file order,
	// repeats included: arc i runs from[i] -> to[i]. An id v >= 0 is
	// job v; v < 0 is the name undeclared[^v] that no JOB declares (a
	// splice, or an error for Graph to report).
	from, to   []int32
	undeclared []string
}

// edit is one place where an instrumented copy differs from the text:
// job's priority replaces text[at:end], the value of one of its
// jobpriority macros, or, when end is insertLine, a VARS line setting
// it goes in at offset at, just after the job's JOB line.
type edit struct{ at, end, job int32 }

const insertLine = -1

// parser is the state of one Parse: the file under construction and
// the reusable tokenizer output. While parsing, undeclared holds the
// names referenced before (or without) a JOB line, and jobOf the job
// that later declared each, or -1.
type parser struct {
	f      *File
	fields []string
	ids    []int32
	jobOf  []int32
	macros int // jobpriority macros seen
}

// nameSeed seeds the name table's hash. Drawn per process, it keeps a
// hostile input (priod parses what clients post) from choosing names
// that collide.
var nameSeed = maphash.MakeSeed()

// Parse reads a DAGMan input file. The whole input is read into one
// string and every job name and submit-file reference is a substring
// of it, so parsing costs a handful of allocations per file (the
// retained arrays) plus one per job with trailing JOB tokens.
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
	text = normalize(text)
	if len(text) > math.MaxInt32 {
		return nil, fmt.Errorf("dagman: %d bytes is more than a DAGMan file may hold", len(text))
	}
	// Presized from the line count: files as FromGraph writes them have
	// about one JOB line in two, decorated files fewer. The name table,
	// which is written all over, starts at a quarter of that and
	// doubles as it fills.
	jobs := (strings.Count(text, "\n") + 1) / 2
	p := parser{f: &File{
		text:  text,
		Jobs:  make([]Job, 0, jobs),
		edits: make([]edit, 0, jobs),
		slots: make([]uint64, tableSize(jobs/4)),
	}}
	lineNo := 0
	for start := 0; start < len(text); {
		next := start + strings.IndexByte(text[start:], '\n') + 1
		lineNo++
		// Like bufio.ScanLines, a \r\n terminator counts as a plain \n.
		raw := strings.TrimSuffix(text[start:next-1], "\r")
		if err := p.addLine(raw, start, next, lineNo); err != nil {
			return nil, err
		}
		start = next
	}
	p.resolve()
	return p.f, nil
}

// normalize returns text with every line ending in \n, the way it is
// written back: a line's \r\n terminator reads as a plain \n (as in
// bufio.ScanLines), so a \r before it is dropped unless the line still
// ends in \r without it, and a last line with no terminator gets one.
// Text already in that form, as almost every file is, comes back as
// is, without a copy.
func normalize(text string) string {
	if strings.IndexByte(text, '\r') < 0 && (text == "" || text[len(text)-1] == '\n') {
		return text
	}
	var b strings.Builder
	b.Grow(len(text) + 1)
	for start := 0; start < len(text); {
		end := strings.IndexByte(text[start:], '\n')
		if end < 0 {
			end = len(text) - start
		}
		raw := strings.TrimSuffix(text[start:start+end], "\r")
		b.WriteString(raw)
		if strings.HasSuffix(raw, "\r") {
			b.WriteByte('\r')
		}
		b.WriteByte('\n')
		start += end + 1
	}
	return b.String()
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

// keyword returns the first field of a line: its statement keyword,
// or "" for a blank line.
func keyword(line string) string {
	start, end := nextField(line, 0)
	return line[start:end]
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

// tableSize returns the name table length for n names: a power of two
// at least 2n, so the table starts at most half full.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// slot returns the index of name's slot in the name table: the one
// holding it, or else the empty one where it belongs. tag is the 32
// hash bits a slot of name holds; they also choose where its probe
// starts, so the table can grow without hashing a name again.
func (f *File) slot(name string) (i int, tag uint64) {
	tag = maphash.String(nameSeed, name)>>32 | 1
	mask := len(f.slots) - 1
	for i = int(tag>>1) & mask; ; i = (i + 1) & mask {
		s := f.slots[i]
		if s == 0 || s>>32 == tag && f.name(int32(uint32(s))) == name {
			return i, tag
		}
	}
}

// fill stores id in the empty slot i for a name of hash bits tag,
// doubling the table when it gets more than half full.
func (f *File) fill(i int, tag uint64, id int32) {
	f.slots[i] = tag<<32 | uint64(uint32(id))
	if f.used++; 2*f.used <= len(f.slots) {
		return
	}
	old := f.slots
	f.slots = make([]uint64, 2*len(old))
	mask := len(f.slots) - 1
	for _, s := range old {
		if s != 0 {
			i := int(s>>33) & mask
			for f.slots[i] != 0 {
				i = (i + 1) & mask
			}
			f.slots[i] = s
		}
	}
}

// lookup returns the Jobs index of a declared job name.
func (f *File) lookup(name string) (int, bool) {
	if len(f.slots) == 0 {
		return 0, false
	}
	i, _ := f.slot(name)
	id := int32(uint32(f.slots[i]))
	return int(id), f.slots[i] != 0 && id >= 0
}

// intern returns the id of a job name: its Jobs index when declared,
// else ^k for the k-th name referenced ahead of its JOB line.
func (p *parser) intern(name string) int32 {
	f := p.f
	i, tag := f.slot(name)
	if s := f.slots[i]; s != 0 {
		return int32(uint32(s))
	}
	id := int32(^len(f.undeclared))
	f.undeclared = append(f.undeclared, name)
	p.jobOf = append(p.jobOf, -1)
	f.fill(i, tag, id)
	return id
}

// resolve runs once at the end of the parse. Names referenced before
// their JOB line take the job's id, and the rest (splices, missing
// jobs) are renumbered into File.undeclared. The edit list loses the
// new VARS lines of jobs that have a jobpriority macro somewhere, and
// the macros of jobs no JOB declares, which instrumenting leaves alone.
func (p *parser) resolve() {
	f := p.f
	if len(p.jobOf) > 0 {
		remap := p.jobOf
		pending := f.undeclared
		f.undeclared = nil
		for k, v := range remap {
			if v < 0 {
				remap[k] = int32(^len(f.undeclared))
				f.undeclared = append(f.undeclared, pending[k])
			}
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
		for i := range f.edits {
			fix(&f.edits[i].job)
		}
		for i, s := range f.slots {
			if id := int32(uint32(s)); s != 0 && id < 0 {
				f.slots[i] = s&^math.MaxUint32 | uint64(uint32(remap[^id]))
			}
		}
	}
	if p.macros == 0 {
		return
	}
	has := make([]bool, len(f.Jobs))
	for _, e := range f.edits {
		if e.end != insertLine && e.job >= 0 {
			has[e.job] = true
		}
	}
	kept := f.edits[:0]
	for _, e := range f.edits {
		if e.job >= 0 && (e.end != insertLine || !has[e.job]) {
			kept = append(kept, e)
		}
	}
	f.edits = kept
}

// addLine parses one line, raw, which spans text[start:next] less its
// terminator. It tokenizes only what its statement needs: the keyword
// first, then every field of a JOB, NODE, PARENT or SPLICE line, but of
// a VARS line only the job and the third field (checked to exist, and
// skipped when it is PREPEND or APPEND), from where the macro scan
// starts. Other statements stay in the text untouched.
func (p *parser) addLine(raw string, start, next, lineNo int) error {
	f := p.f
	k0, k1 := nextField(raw, 0)
	switch kw := raw[k0:k1]; {
	case kw == "" || kw[0] == '#':
	case isKeyword(kw, "JOB") || isKeyword(kw, "NODE"):
		fields := p.split(raw)
		if len(fields) < 3 {
			return fmt.Errorf("dagman: line %d: %s needs a name and a submit file", lineNo, strings.ToUpper(kw))
		}
		name := fields[1]
		i, tag := f.slot(name)
		id := int32(uint32(f.slots[i]))
		if f.slots[i] != 0 && id >= 0 {
			return fmt.Errorf("dagman: line %d: duplicate job %q", lineNo, name)
		}
		for _, s := range f.Splices {
			if s.Name == name {
				return fmt.Errorf("dagman: line %d: job %q collides with a splice name", lineNo, name)
			}
		}
		v := int32(len(f.Jobs))
		f.Jobs = append(f.Jobs, Job{Name: name, SubmitFile: fields[2], Extra: cloneTail(fields[3:])})
		if f.slots[i] != 0 {
			p.jobOf[^id] = v
			f.slots[i] = tag<<32 | uint64(v)
		} else {
			f.fill(i, tag, v)
		}
		f.edits = append(f.edits, edit{at: int32(next), end: insertLine, job: v})
	case isKeyword(kw, "PARENT"):
		fields := p.split(raw)
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
	case isKeyword(kw, "VARS"):
		j0, j1 := nextField(raw, k1)
		t0, t1 := nextField(raw, j1)
		if t0 == t1 {
			return fmt.Errorf("dagman: line %d: VARS needs a job and an assignment", lineNo)
		}
		pairs := j1
		if isPlacement(raw[t0:t1]) {
			pairs = t1
		}
		job := raw[j0:j1]
		if strings.EqualFold(job, "ALL_NODES") {
			break
		}
		id, interned := int32(0), false
		for m, i, ok := nextMacro(raw, pairs); ok; m, i, ok = nextMacro(raw, i) {
			if m.isPriority(raw) {
				if !interned {
					id, interned = p.intern(job), true
				}
				f.edits = append(f.edits, edit{at: int32(start + m.val0), end: int32(start + m.val1), job: id})
				p.macros++
			}
		}
	case isKeyword(kw, "SPLICE"):
		if err := f.parseSplice(p.split(raw), lineNo); err != nil {
			return err
		}
	default:
		// RETRY, SCRIPT, CONFIG, DOT, MAXJOBS, PRIORITY, ... preserved.
	}
	return nil
}

// split tokenizes raw fully into the parser's reusable field buffer.
func (p *parser) split(raw string) []string {
	p.fields = appendFields(p.fields[:0], raw)
	return p.fields
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

// isPlacement reports whether a VARS line's third field is the
// optional PREPEND or APPEND.
func isPlacement(w string) bool {
	return strings.EqualFold(w, "PREPEND") || strings.EqualFold(w, "APPEND")
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

// Job returns the named job, if declared.
func (f *File) Job(name string) (Job, bool) {
	v, ok := f.lookup(name)
	if !ok {
		return Job{}, false
	}
	return f.Jobs[v], true
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
// list. It carries no name index: its IndexOf scans the names.
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
	g, err := dag.FromArcs(names, nil, f.from, f.to)
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
	f.checkPriorities(prio)
	return f.instrumented(prio)
}

// flushAt is how much instrumented text WriteInstrumented buffers
// before it writes.
const flushAt = 64 << 10

// WriteInstrumented writes InstrumentIDs's text to w in writes of at
// least 64 KB (but the last), so the instrumented copy of a large file
// is never held in memory whole. It returns the first error w reports.
func (f *File) WriteInstrumented(w io.Writer, prio []int) error {
	f.checkPriorities(prio)
	buf, err := f.instrument(make([]byte, 0, flushAt+flushAt/8), w, prio)
	if err == nil && len(buf) > 0 {
		_, err = w.Write(buf)
	}
	return err
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
		if v, ok := f.lookup(name); ok {
			prio[v] = p
		} else {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	buf := f.instrumented(prio)
	for _, name := range missing {
		buf = appendPriorityLine(buf, name, priorities[name])
	}
	return string(buf)
}

func (f *File) checkPriorities(prio []int) {
	if len(prio) != len(f.Jobs) {
		panic(fmt.Sprintf("dagman: got %d priorities for %d jobs", len(prio), len(f.Jobs)))
	}
}

// instrumented returns the whole instrumented text, in a buffer sized
// to it up front.
func (f *File) instrumented(prio []int) []byte {
	var digits [20]byte
	size := len(f.text)
	for _, e := range f.edits {
		if p := prio[e.job]; p != noPriority {
			size += len(strconv.AppendInt(digits[:0], int64(p), 10))
			if e.end == insertLine {
				size += len(`Vars  jobpriority=""`) + len(f.Jobs[e.job].Name) + 1
			} else {
				size -= int(e.end - e.at)
			}
		}
	}
	buf, _ := f.instrument(make([]byte, 0, size), nil, prio)
	return buf
}

// instrument is the one instrumentation loop: it copies the text
// between edits in bulk (see copySpan) and writes each edit's priority
// in between. With a nil w it returns the whole text appended to buf;
// otherwise it returns what is left to write.
func (f *File) instrument(buf []byte, w io.Writer, prio []int) ([]byte, error) {
	var err error
	last := 0
	for _, e := range f.edits {
		p := prio[e.job]
		if p == noPriority {
			continue
		}
		if buf, err = copySpan(buf, w, f.text[last:e.at]); err != nil {
			return nil, err
		}
		if e.end == insertLine {
			buf = appendPriorityLine(buf, f.Jobs[e.job].Name, p)
			last = int(e.at)
		} else {
			buf = strconv.AppendInt(buf, int64(p), 10)
			last = int(e.end)
		}
	}
	return copySpan(buf, w, f.text[last:])
}

// copySpan appends span to buf. Streaming to a non-nil w, it writes buf
// once it would reach flushAt bytes, first topped up from span to
// exactly flushAt, and hands what is left of span straight to w when
// that is flushAt bytes or more; so buf never holds much more than
// flushAt bytes, and every write is at least that long.
func copySpan(buf []byte, w io.Writer, span string) ([]byte, error) {
	if w == nil || len(buf)+len(span) < flushAt {
		return append(buf, span...), nil
	}
	n := max(0, flushAt-len(buf))
	if _, err := w.Write(append(buf, span[:n]...)); err != nil {
		return nil, err
	}
	buf, span = buf[:0], span[n:]
	if len(span) < flushAt {
		return append(buf, span...), nil
	}
	_, err := io.WriteString(w, span)
	return buf, err
}

func appendPriorityLine(buf []byte, job string, p int) []byte {
	buf = append(buf, "Vars "...)
	buf = append(buf, job...)
	buf = append(buf, ` jobpriority="`...)
	buf = strconv.AppendInt(buf, int64(p), 10)
	return append(buf, "\"\n"...)
}

// String reproduces the file text as parsed, every line ending in \n
// (see normalize).
func (f *File) String() string {
	return f.text
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
