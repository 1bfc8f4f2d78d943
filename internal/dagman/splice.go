package dagman

import (
	"fmt"
	"path/filepath"
	"strings"
)

// Splice is a SPLICE statement: an entire DAGMan file inlined under a
// name, the mechanism large workflows (like the paper's SDSS runs) use
// to compose sub-dags. Jobs of the spliced dag appear as
// "<name>+<job>"; a dependency naming the splice itself attaches to its
// sources (as a child) or sinks (as a parent), matching Condor's
// semantics.
type Splice struct {
	Name string
	File string
	// Extra preserves trailing tokens (DIR <d>).
	Extra []string
}

// parseSplice extends addLine; called from addLine for SPLICE keywords.
func (f *File) parseSplice(fields []string, lineNo int) error {
	if len(fields) < 3 {
		return fmt.Errorf("dagman: line %d: SPLICE needs a name and a file", lineNo)
	}
	name := fields[1]
	if _, dup := f.lookup(name); dup {
		return fmt.Errorf("dagman: line %d: splice %q collides with a job name", lineNo, name)
	}
	for _, s := range f.Splices {
		if s.Name == name {
			return fmt.Errorf("dagman: line %d: duplicate splice %q", lineNo, name)
		}
	}
	f.Splices = append(f.Splices, Splice{Name: name, File: fields[2], Extra: cloneTail(fields[3:])})
	return nil
}

// Flatten resolves every SPLICE recursively and returns an equivalent
// plain DAGMan file: spliced jobs renamed "<splice>+<job>", their
// internal dependencies and jobpriority-style VARS carried over, and
// outer dependencies that name a splice expanded to its sources or
// sinks. load maps a splice file reference to its parsed File (use
// LoadSplice for disk access); it is called once per SPLICE statement.
func (f *File) Flatten(load func(file string) (*File, error)) (*File, error) {
	return f.flatten(load, nil)
}

func (f *File) flatten(load func(string) (*File, error), stack []string) (*File, error) {
	if len(f.Splices) == 0 {
		return f, nil
	}
	var b strings.Builder

	// Track, per splice, its flattened sources and sinks for
	// dependency expansion.
	type spliceInfo struct{ sources, sinks []string }
	infos := make(map[string]spliceInfo, len(f.Splices))

	// Outer jobs keep their JOB and VARS lines.
	for text := f.text; text != ""; {
		var ln string
		ln, text = nextLine(text)
		if copied(keyword(ln)) {
			b.WriteString(ln)
		}
	}

	for _, sp := range f.Splices {
		for _, anc := range stack {
			if anc == sp.File {
				return nil, fmt.Errorf("dagman: splice cycle through %q", sp.File)
			}
		}
		inner, err := load(sp.File)
		if err != nil {
			return nil, fmt.Errorf("dagman: splice %s: %w", sp.Name, err)
		}
		flat, err := inner.flatten(load, append(stack, sp.File))
		if err != nil {
			return nil, fmt.Errorf("dagman: splice %s: %w", sp.Name, err)
		}
		g, err := flat.Graph()
		if err != nil {
			return nil, fmt.Errorf("dagman: splice %s: %w", sp.Name, err)
		}
		prefix := sp.Name + "+"
		for _, j := range flat.Jobs {
			fmt.Fprintf(&b, "Job %s %s", prefix+j.Name, j.SubmitFile)
			for _, e := range j.Extra {
				fmt.Fprintf(&b, " %s", e)
			}
			b.WriteByte('\n')
		}
		// A spliced VARS line keeps every byte after its job name, so
		// quoted values keep their inner spacing.
		for text := flat.text; text != ""; {
			var ln string
			ln, text = nextLine(text)
			if k0, k1 := nextField(ln, 0); isKeyword(ln[k0:k1], "VARS") {
				start, end := nextField(ln, k1)
				fmt.Fprintf(&b, "Vars %s%s%s", prefix, ln[start:end], ln[end:])
			}
		}
		for i, u := range flat.from {
			fmt.Fprintf(&b, "Parent %s%s Child %s%s\n", prefix, flat.name(u), prefix, flat.name(flat.to[i]))
		}
		var info spliceInfo
		for _, v := range g.Sources() {
			info.sources = append(info.sources, prefix+g.Name(int(v)))
		}
		for _, v := range g.Sinks() {
			info.sinks = append(info.sinks, prefix+g.Name(int(v)))
		}
		infos[sp.Name] = info
	}

	// Outer dependencies, expanding splice references.
	for _, d := range f.Deps() {
		parents := []string{d.Parent}
		if info, ok := infos[d.Parent]; ok {
			parents = info.sinks
		}
		children := []string{d.Child}
		if info, ok := infos[d.Child]; ok {
			children = info.sources
		}
		for _, p := range parents {
			for _, c := range children {
				fmt.Fprintf(&b, "Parent %s Child %s\n", p, c)
			}
		}
	}

	return Parse(strings.NewReader(b.String()))
}

// nextLine splits a File's text after its first line, which keeps its
// \n.
func nextLine(text string) (line, rest string) {
	n := strings.IndexByte(text, '\n') + 1
	return text[:n], text[n:]
}

// copied reports whether Flatten copies an outer line that starts with
// keyword kw into the flattened file.
func copied(kw string) bool {
	return isKeyword(kw, "JOB") || isKeyword(kw, "NODE") || isKeyword(kw, "VARS")
}

// FlattenDrops lists what Flatten leaves out of the flattened file, in
// file order: a "line <n> comment" entry per comment, and a
// "line <n> <keyword>" entry per statement other than JOB, NODE, VARS,
// PARENT and SPLICE (CONFIG, RETRY, SCRIPT, MAXJOBS, CATEGORY,
// PRIORITY, ...), or SPLICE with trailing tokens (DIR <d>, which
// Flatten ignores). Nil means the flattened file keeps every statement
// of f. It covers f's own text only: Flatten drops the same from each
// file f splices, so a caller that must lose nothing checks every File
// its loader returns as well.
func (f *File) FlattenDrops() []string {
	var drops []string
	lineNo := 0
	for text := f.text; text != ""; {
		var ln string
		ln, text = nextLine(text)
		lineNo++
		kw := keyword(ln)
		switch {
		case kw == "":
		case kw[0] == '#':
			drops = append(drops, fmt.Sprintf("line %d comment", lineNo))
		case isKeyword(kw, "SPLICE") && len(strings.Fields(ln)) > 3:
			drops = append(drops, fmt.Sprintf("line %d SPLICE DIR", lineNo))
		case copied(kw) || isKeyword(kw, "PARENT") || isKeyword(kw, "SPLICE"):
			// PARENT lines come out expanded, SPLICE lines inlined.
		default:
			drops = append(drops, fmt.Sprintf("line %d %s", lineNo, kw))
		}
	}
	return drops
}

// LoadSplice returns a loader for Flatten that reads splice files from
// disk, resolving relative references against dir.
func LoadSplice(dir string) func(file string) (*File, error) {
	return func(file string) (*File, error) {
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		return ParseFile(file)
	}
}
