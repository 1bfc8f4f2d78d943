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
	if id, dup := f.index[name]; dup && id >= 0 {
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

	// Outer jobs keep their names and VARS lines.
	for _, ln := range f.lines {
		if ln.kind != lineOther {
			b.WriteString(ln.raw)
			b.WriteByte('\n')
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
		for _, ln := range flat.lines {
			if ln.kind == lineVars || ln.kind == linePrio {
				_, end := nextField(ln.raw, 0)
				start, end := nextField(ln.raw, end)
				fmt.Fprintf(&b, "Vars %s%s%s\n", prefix, ln.raw[start:end], ln.raw[end:])
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
