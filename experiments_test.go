package repro

import (
	"bufio"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// gridCI is one metric of one grid point as cmd/simgrid prints it:
// "median[lo,hi]", or "(n/a)" (valid false) when the ratio is undefined.
type gridCI struct {
	med, lo, hi float64
	valid       bool
}

func (c gridCI) contains1() bool { return !c.valid || (c.lo <= 1 && 1 <= c.hi) }

type gridPoint struct{ time, stall, util gridCI }

type gridKey struct {
	bit string // as printed: "0.001", "0.01", ...
	bs  int
}

var (
	gridRowRE = regexp.MustCompile(`^muBIT=\s*(\S+) muBS=\s*(\d+)\s+time=\s*(.*?)\s+stall=\s*(.*?)\s+util=\s*(.*?)\s*$`)
	gridCIRE  = regexp.MustCompile(`^([\d.]+)\[([\d.]+),([\d.]+)\]$`)
)

// readGrid parses one checked-in Figs. 6–9 sweep (results/fig*_*.txt).
func readGrid(t *testing.T, path string) map[gridKey]gridPoint {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ci := func(s string) gridCI {
		m := gridCIRE.FindStringSubmatch(s)
		if m == nil {
			if s != "(n/a)" {
				t.Fatalf("%s: malformed ratio %q", path, s)
			}
			return gridCI{}
		}
		var v [3]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(m[i+1], 64); err != nil {
				t.Fatal(err)
			}
		}
		return gridCI{med: v[0], lo: v[1], hi: v[2], valid: true}
	}
	grid := make(map[gridKey]gridPoint)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := gridRowRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue // header comments
		}
		bs, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatal(err)
		}
		grid[gridKey{m[1], bs}] = gridPoint{ci(m[3]), ci(m[4]), ci(m[5])}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(grid) != 63 {
		t.Fatalf("%s: %d grid points, want 7 mu_BIT × 9 mu_BS = 63", path, len(grid))
	}
	return grid
}

// TestLowMuBITClaims checks EXPERIMENTS.md's "mu_BIT ≤ 10⁻²" trend
// against the checked-in sweeps: ratios close to 1 everywhere, every
// CI containing 1 from mu_BS = 2⁸ up, and the small-batch exceptions
// the doc names.
func TestLowMuBITClaims(t *testing.T) {
	grids := map[string]map[gridKey]gridPoint{
		"airsn":    readGrid(t, "results/fig6_airsn.txt"),
		"inspiral": readGrid(t, "results/fig7_inspiral.txt"),
		"sdss":     readGrid(t, "results/fig8_sdss.txt"),
		"montage":  readGrid(t, "results/fig9_montage.txt"),
	}
	for dag, grid := range grids {
		for k, p := range grid {
			if k.bit != "0.001" && k.bit != "0.01" {
				continue
			}
			if p.time.med < 0.95 || p.time.med > 1.03 {
				t.Errorf("%s mu_BIT=%s mu_BS=%d: time ratio %.3f outside the claimed [0.95, 1.03]", dag, k.bit, k.bs, p.time.med)
			}
			if k.bs >= 256 && !(p.time.contains1() && p.stall.contains1() && p.util.contains1()) {
				t.Errorf("%s mu_BIT=%s mu_BS=%d: a CI excludes 1.00, but the doc claims none does from mu_BS = 2⁸ up: %+v", dag, k.bit, k.bs, p)
			}
		}
	}

	// The named exceptions: PRIO still gains at small batch sizes.
	for _, c := range []struct {
		dag, bit    string
		bs          int
		med, lo, hi float64
	}{
		{"sdss", "0.001", 4, 0.952, 0.941, 0.966},
		{"sdss", "0.01", 64, 0.952, 0.917, 0.982},
		{"airsn", "0.01", 1, 0.971, 0.964, 0.981},
		{"inspiral", "0.01", 1, 0.980, 0.962, 0.997},
	} {
		got := grids[c.dag][gridKey{c.bit, c.bs}].time
		if got.med != c.med || got.lo != c.lo || got.hi != c.hi {
			t.Errorf("%s mu_BIT=%s mu_BS=%d: time %.3f [%.3f, %.3f], the doc says %.3f [%.3f, %.3f]",
				c.dag, c.bit, c.bs, got.med, got.lo, got.hi, c.med, c.lo, c.hi)
		}
	}
	sdss := grids["sdss"]
	if got := sdss[gridKey{"0.001", 4}].stall.med; got != 0.843 {
		t.Errorf("sdss mu_BIT=0.001 mu_BS=4: stall %.3f, the doc says 0.843", got)
	}
	for _, bs := range []int{1, 4, 16, 64} {
		if got := sdss[gridKey{"0.01", bs}].stall; got.med < 0.79 || got.med > 0.89 || got.hi >= 1 {
			t.Errorf("sdss mu_BIT=0.01 mu_BS=%d: stall %+v, the doc says 0.80–0.88 with the CI below 1", bs, got)
		}
	}
}

// benchRows parses a checked-in `go test -bench` output: each row's
// name (without the -GOMAXPROCS suffix) maps to its metrics by unit
// (ns/op, B/op, allocs/op, components, ...).
func benchRows(t *testing.T, path string) map[string]map[string]float64 {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]map[string]float64)
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := make(map[string]float64)
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", path, line, err)
			}
			m[f[i+1]] = v
		}
		rows[strings.TrimPrefix(name, "Benchmark")] = m
	}
	return rows
}

// tableRows returns the cells of every markdown table row in the
// section of doc headed by heading, keyed by the row's first cell.
func tableRows(t *testing.T, doc, heading string) map[string][]string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading+"\n")
	if i < 0 {
		t.Fatalf("no section %q", heading)
	}
	sec := doc[i+len(heading)+2:]
	if j := strings.Index(sec, "\n## "); j >= 0 {
		sec = sec[:j]
	}
	rows := make(map[string][]string)
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for k := range cells {
			cells[k] = strings.TrimSpace(cells[k])
		}
		rows[cells[0]] = cells
	}
	return rows
}

// sig3 prints x with three significant digits (two decimals below 10,
// one below 100, none above).
func sig3(x float64) string {
	switch {
	case x < 10:
		return strconv.FormatFloat(x, 'f', 2, 64)
	case x < 100:
		return strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strconv.FormatFloat(x, 'f', 0, 64)
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return sig3(ns/1e9) + " s"
	case ns >= 1e6:
		return sig3(ns/1e6) + " ms"
	}
	return sig3(ns/1e3) + " µs"
}

func fmtBytes(b float64) string {
	if b >= 1<<20 {
		return sig3(b/(1<<20)) + " MB"
	}
	return sig3(b/(1<<10)) + " KB"
}

// fmtCount prints a count with thousands separators: 24009 → "24,009".
func fmtCount(x float64) string {
	s := strconv.FormatInt(int64(math.Round(x)), 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// fmtSpeedup prints a ratio to two significant figures: 2118 → "~2,100×".
func fmtSpeedup(r float64) string {
	p := math.Pow(10, math.Floor(math.Log10(r))-1)
	return "~" + fmtCount(math.Round(r/p)*p) + "×"
}

// TestOverheadAndAblationTables holds EXPERIMENTS.md's Section 3.5 and
// 3.6 tables, and README's summary rows, to the benchmark outputs they
// quote: results/ablations.txt (make bench) and results/overhead.txt
// (make sweeps). Regenerating either file without the docs, or editing
// a cell by hand, fails here.
func TestOverheadAndAblationTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	glance := tableRows(t, string(readme), "## Results at a glance")
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s reads %q, but the benchmark output gives %q", what, got, want)
		}
	}

	overhead := benchRows(t, "results/overhead.txt")
	s36 := tableRows(t, string(exp), "## Section 3.6 — scheduling overhead")
	for _, d := range []struct{ row, bench string }{
		{"AIRSN", "airsn"}, {"Inspiral", "inspiral"}, {"Montage", "montage"}, {"SDSS", "sdss"},
	} {
		m, cells := overhead["Overhead/"+d.bench], s36[d.row]
		if m == nil || len(cells) != 5 {
			t.Fatalf("Section 3.6 %s: benchmark row %v, table row %q", d.row, m, cells)
		}
		check("Section 3.6 "+d.row+" components", cells[2], fmtCount(m["components"]))
		check("Section 3.6 "+d.row+" measured", cells[4], fmtNs(m["ns/op"])+" / "+fmtBytes(m["B/op"]))
	}

	ablations := benchRows(t, "results/ablations.txt")
	s35 := tableRows(t, string(exp), "## Section 3.5 — algorithm engineering")
	for _, a := range []struct{ row, with, without, readme string }{
		{"bipartite fast path in the decomposition", "AblationFastPath/on", "AblationFastPath/off", "S 3.5 fast-path speedup"},
		{"B-tree priority queue in the Combine phase", "AblationCombine/btree", "AblationCombine/naive", "S 3.5 B-tree Combine speedup"},
	} {
		with, without, cells := ablations[a.with], ablations[a.without], s35[a.row]
		if with == nil || without == nil || len(cells) != 6 {
			t.Fatalf("Section 3.5 %s: benchmark rows %v %v, table row %q", a.row, with, without, cells)
		}
		speedup := fmtSpeedup(without["ns/op"] / with["ns/op"])
		check("Section 3.5 "+a.row+" with", cells[3], fmtNs(with["ns/op"]))
		check("Section 3.5 "+a.row+" without", cells[4], fmtNs(without["ns/op"]))
		check("Section 3.5 "+a.row+" speed-up", cells[5], "**"+speedup+"**")
		if r := glance[a.readme]; len(r) != 3 {
			t.Errorf("README has no %q row", a.readme)
		} else {
			check("README "+a.readme, r[2], speedup)
		}
	}
}
