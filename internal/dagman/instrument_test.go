package dagman

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/workloads"
)

// instrumentText parses text and instruments it with job v's priority
// set to 100+v.
func instrumentText(t *testing.T, text string) string {
	t.Helper()
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	prio := make([]int, len(f.Jobs))
	for v := range prio {
		prio[v] = 100 + v
	}
	return string(f.InstrumentIDs(prio))
}

func TestInstrumentRewritesOnlyThePriorityValue(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"other macros survive",
			"Job a a.sub\nVARS a state=\"Wisconsin\" jobpriority=\"7\"\n",
			"Job a a.sub\nVARS a state=\"Wisconsin\" jobpriority=\"100\"\n"},
		{"spelling and spacing survive",
			"Job a a.sub\nvars\ta  JobPriority = \"7\"   args=\"-i  x\\tz\"\n",
			"Job a a.sub\nvars\ta  JobPriority = \"100\"   args=\"-i  x\\tz\"\n"},
		{"escapes inside other values",
			"Job a a.sub\nVARS a note=\"say \\\"jobpriority=\\\\\\\"1\\\"\" jobpriority=\"2\" tag=\"a\\\\b\"\n",
			"Job a a.sub\nVARS a note=\"say \\\"jobpriority=\\\\\\\"1\\\"\" jobpriority=\"100\" tag=\"a\\\\b\"\n"},
		{"PREPEND",
			"Job a a.sub\nVARS a PREPEND jobpriority=\"3\"\n",
			"Job a a.sub\nVARS a PREPEND jobpriority=\"100\"\n"},
		{"every jobpriority pair",
			"Job a a.sub\nVARS a jobpriority=\"1\" jobpriority=\"2\"\n",
			"Job a a.sub\nVARS a jobpriority=\"100\" jobpriority=\"100\"\n"},
		{"a mention is not a macro",
			"Job a a.sub\nJob b b.sub\nVARS b note=\"see jobpriority docs\"\n",
			"Job a a.sub\nVars a jobpriority=\"100\"\nJob b b.sub\nVars b jobpriority=\"101\"\nVARS b note=\"see jobpriority docs\"\n"},
		{"a macro named otherwise is not a priority",
			"Job a a.sub\nVARS a myjobpriority=\"5\"\n",
			"Job a a.sub\nVars a jobpriority=\"100\"\nVARS a myjobpriority=\"5\"\n"},
		{"ALL_NODES is never rewritten",
			"VARS ALL_NODES jobpriority=\"9\"\nJob a a.sub\n",
			"VARS ALL_NODES jobpriority=\"9\"\nJob a a.sub\nVars a jobpriority=\"100\"\n"},
		{"a malformed pair ends the scan",
			"Job a a.sub\nVARS a x=unquoted jobpriority=\"1\"\n",
			"Job a a.sub\nVars a jobpriority=\"100\"\nVARS a x=unquoted jobpriority=\"1\"\n"},
		{"a priority line ahead of its job",
			"VARS a jobpriority=\"1\"\nJob a a.sub\n",
			"VARS a jobpriority=\"100\"\nJob a a.sub\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := instrumentText(t, tc.in); got != tc.want {
				t.Fatalf("instrumented:\n%q\nwant:\n%q", got, tc.want)
			}
		})
	}
}

func TestInstrumentIDsLengthMismatchPanics(t *testing.T) {
	f, err := Parse(strings.NewReader("Job a a.sub\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("InstrumentIDs accepted 2 priorities for 1 job")
		}
	}()
	f.InstrumentIDs([]int{1, 2})
}

// chunkWriter records each Write, failing from the failAt-th one on
// when failAt > 0.
type chunkWriter struct {
	chunks [][]byte
	failAt int
}

var errWriteFailed = errors.New("write failed")

func (w *chunkWriter) Write(p []byte) (int, error) {
	if w.failAt > 0 && len(w.chunks)+1 >= w.failAt {
		return 0, errWriteFailed
	}
	w.chunks = append(w.chunks, bytes.Clone(p))
	return len(p), nil
}

// TestWriteInstrumentedMatchesInstrumentIDs streams the SDSS file, fresh
// and reinstrumented, and checks that the writes add up to
// InstrumentIDs's text, that each but the last ends with the first
// input line (and the priority line it may gain) to reach flushAt
// bytes, and that a
// failing writer's error comes back.
func TestWriteInstrumentedMatchesInstrumentIDs(t *testing.T) {
	g := workloads.PaperSDSS()
	prio := make([]int, g.NumNodes())
	for v := range prio {
		prio[v] = g.NumNodes() - v
	}
	fresh := FromGraph(g, nil)
	again, err := Parse(bytes.NewReader(fresh.InstrumentIDs(prio)))
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*File{"fresh": fresh, "reinstrument": again} {
		want := f.InstrumentIDs(prio)
		var w chunkWriter
		if err := f.WriteInstrumented(&w, prio); err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(w.chunks, nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed %d bytes that differ from InstrumentIDs's %d", name, len(got), len(want))
		}
		if len(w.chunks) < 2 {
			t.Fatalf("%s: %d bytes in %d writes", name, len(want), len(w.chunks))
		}
		for i, c := range w.chunks[:len(w.chunks)-1] {
			before := bytes.LastIndexByte(c[:len(c)-1], '\n')
			if bytes.HasPrefix(c[before+1:], []byte("Vars ")) {
				before = bytes.LastIndexByte(c[:before], '\n')
			}
			if before+1 >= flushAt || len(c) < flushAt || c[len(c)-1] != '\n' {
				t.Fatalf("%s: write %d has %d bytes, %d before its last line; want lines up to the first to reach %d", name, i, len(c), before+1, flushAt)
			}
		}
		for _, failAt := range []int{1, 2, len(w.chunks)} {
			if err := f.WriteInstrumented(&chunkWriter{failAt: failAt}, prio); err != errWriteFailed {
				t.Fatalf("%s: write %d failed, WriteInstrumented returned %v", name, failAt, err)
			}
		}
	}
}

// refMacro is one name="value" pair found by refVarsMacros: value is
// raw[v0:v1], the text between the quotes.
type refMacro struct {
	name   string
	v0, v1 int
}

// refVarsMacros is a second, independently written reader of the VARS
// grammar for FuzzInstrument: the job, and the well-formed pairs up to
// the first malformed one. ok is false for a line that is not a VARS
// statement.
func refVarsMacros(raw string) (job string, macros []refMacro, ok bool) {
	isSpace := func(r rune) bool { return unicode.IsSpace(r) }
	fieldEnd := func(i int) (int, int) {
		j := strings.IndexFunc(raw[i:], func(r rune) bool { return !isSpace(r) })
		if j < 0 {
			return len(raw), len(raw)
		}
		start := i + j
		k := strings.IndexFunc(raw[start:], isSpace)
		if k < 0 {
			return start, len(raw)
		}
		return start, start + k
	}
	s0, e0 := fieldEnd(0)
	s1, e1 := fieldEnd(e0)
	if !strings.EqualFold(raw[s0:e0], "VARS") || s1 == e1 {
		return "", nil, false
	}
	job, i := raw[s1:e1], e1
	if s2, e2 := fieldEnd(i); strings.EqualFold(raw[s2:e2], "PREPEND") || strings.EqualFold(raw[s2:e2], "APPEND") {
		i = e2
	}
	blank := " \t\v\f\r"
	for {
		i += len(raw[i:]) - len(strings.TrimLeft(raw[i:], blank))
		n := i
		for n < len(raw) && (raw[n] == '_' || raw[n] < 0x80 && (unicode.IsLetter(rune(raw[n])) || unicode.IsDigit(rune(raw[n])))) {
			n++
		}
		rest := strings.TrimLeft(raw[n:], blank)
		if n == i || !strings.HasPrefix(rest, "=") {
			return job, macros, true
		}
		rest = strings.TrimLeft(rest[1:], blank)
		if !strings.HasPrefix(rest, `"`) {
			return job, macros, true
		}
		v0 := len(raw) - len(rest) + 1
		v1 := -1
		for k := v0; k < len(raw); k++ {
			if raw[k] == '\\' {
				k++
			} else if raw[k] == '"' {
				v1 = k
				break
			}
		}
		if v1 < 0 {
			return job, macros, true
		}
		macros = append(macros, refMacro{raw[i:n], v0, v1})
		i = v1 + 1
	}
}

// FuzzInstrument checks rewrite safety on arbitrary files: InstrumentIDs
// changes nothing but jobpriority values. Every input line comes out
// byte for byte, except that a VARS line of a declared job has each
// jobpriority value replaced by the job's priority; a job with no such
// line anywhere gets exactly one new line right after its JOB line.
func FuzzInstrument(f *testing.F) {
	f.Add(fig3Text, 3)
	f.Add("Job a a.sub\nVARS a state=\"Wisconsin\" jobpriority=\"7\"\nJob b b.sub\nVARS b note=\"see jobpriority docs\"\n", -5)
	f.Add("VARS ALL_NODES jobpriority=\"9\"\nJob A x\nvars A APPEND  jobPriority = \"1\" a=\"\\\"q\\\\\"\n", 0)
	f.Add("Job a a.sub\nVars a x=\"1\" jobpriority=\"2\nVARS ghost jobpriority=\"3\"\n", 1<<40)
	f.Add("NODE A A.sub\nNODE B B.sub\nVARS B jobpriority=\"1\"\nnode C C.sub\nPARENT A CHILD B C\n", 2)
	f.Fuzz(func(t *testing.T, input string, base int) {
		file, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		prio := make([]int, len(file.Jobs))
		for v := range prio {
			prio[v] = base - 3*v
		}
		lines := func(text string) []string {
			if text == "" {
				return nil
			}
			return strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		}
		out, in := lines(string(file.InstrumentIDs(prio))), lines(file.String())
		covered := make([]bool, len(file.Jobs))
		for _, raw := range in {
			if job, macros, ok := refVarsMacros(raw); ok {
				v, declared := file.index[job]
				for _, m := range macros {
					if declared && !strings.EqualFold(job, "ALL_NODES") && strings.EqualFold(m.name, "jobpriority") {
						covered[v] = true
					}
				}
			}
		}
		k := 0
		next := func() string {
			if k == len(out) {
				t.Fatalf("output ends early\ninput: %q", input)
			}
			k++
			return out[k-1]
		}
		for _, raw := range in {
			want := raw
			if job, macros, ok := refVarsMacros(raw); ok && !strings.EqualFold(job, "ALL_NODES") {
				if v, declared := file.index[job]; declared {
					var b strings.Builder
					last := 0
					for _, m := range macros {
						if strings.EqualFold(m.name, "jobpriority") {
							b.WriteString(raw[last:m.v0])
							b.WriteString(strconv.Itoa(prio[v]))
							last = m.v1
						}
					}
					b.WriteString(raw[last:])
					want = b.String()
				}
			}
			if got := next(); got != want {
				t.Fatalf("line %q came out as %q, want %q\ninput: %q", raw, got, want, input)
			}
			fields := strings.Fields(raw)
			if len(fields) >= 3 && (strings.ToUpper(fields[0]) == "JOB" || strings.ToUpper(fields[0]) == "NODE") {
				v := file.index[fields[1]]
				if !covered[v] {
					want := "Vars " + fields[1] + ` jobpriority="` + strconv.Itoa(prio[v]) + `"`
					if got := next(); got != want {
						t.Fatalf("after JOB %s: %q, want %q\ninput: %q", fields[1], got, want, input)
					}
				}
			}
		}
		if k != len(out) {
			t.Fatalf("%d extra output lines: %q\ninput: %q", len(out)-k, out[k:], input)
		}
	})
}
