package dagman

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// SubmitFile is a parsed Condor job submit description file (JSDF): a
// sequence of "attribute = value" lines and commands such as "queue".
type SubmitFile struct {
	lines []string
}

// ParseSubmit reads a JSDF.
func ParseSubmit(r io.Reader) (*SubmitFile, error) {
	s := &SubmitFile{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		s.lines = append(s.lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dagman: read submit file: %w", err)
	}
	return s, nil
}

// ParseSubmitFile reads a JSDF from disk.
func ParseSubmitFile(path string) (*SubmitFile, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dagman: %w", err)
	}
	defer fh.Close()
	return ParseSubmit(fh)
}

// Attribute returns the value of the named attribute (case-insensitive),
// if set. When the file assigns it more than once, the value is the
// last assignment's: in HTCondor's submit language the last one wins.
func (s *SubmitFile) Attribute(name string) (string, bool) {
	val, ok := "", false
	for _, ln := range s.lines {
		if k, v, isAttr := splitAttr(ln); isAttr && strings.EqualFold(k, name) {
			val, ok = v, true
		}
	}
	return val, ok
}

func splitAttr(ln string) (key, value string, ok bool) {
	trimmed := strings.TrimSpace(ln)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		return "", "", false
	}
	eq := strings.Index(trimmed, "=")
	if eq <= 0 {
		return "", "", false
	}
	return strings.TrimSpace(trimmed[:eq]), strings.TrimSpace(trimmed[eq+1:]), true
}

// InstrumentPriority adds the line the prio tool adds to every JSDF:
//
//	priority = $(jobpriority)
//
// Every existing priority assignment is replaced by that line, so
// whichever one HTCondor keeps is $(jobpriority); without one, the line
// is inserted before the first queue command (or appended when there is
// none). The call is idempotent.
func (s *SubmitFile) InstrumentPriority() {
	const assignment = "priority = $(jobpriority)"
	replaced := false
	for i, ln := range s.lines {
		if k, _, isAttr := splitAttr(ln); isAttr && strings.EqualFold(k, "priority") {
			s.lines[i] = assignment
			replaced = true
		}
	}
	if replaced {
		return
	}
	for i, ln := range s.lines {
		first := strings.Fields(strings.TrimSpace(ln))
		if len(first) > 0 && strings.EqualFold(first[0], "queue") {
			s.lines = append(s.lines, "")
			copy(s.lines[i+1:], s.lines[i:len(s.lines)-1])
			s.lines[i] = assignment
			return
		}
	}
	s.lines = append(s.lines, assignment)
}

// String renders the JSDF text.
func (s *SubmitFile) String() string {
	var b strings.Builder
	for _, ln := range s.lines {
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	return b.String()
}
