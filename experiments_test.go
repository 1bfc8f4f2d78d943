package repro

import (
	"bufio"
	"os"
	"regexp"
	"strconv"
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
