// Package workloads generates the four scientific dags of the paper's
// evaluation (Section 3.3). The original DAGMan input files were never
// distributed, so each generator synthesizes a dag that matches every
// structural property the paper states — node counts, component shapes,
// sharing patterns, and the bottleneck structure that drives the
// eligibility results — as documented in DESIGN.md.
//
//   - AIRSN: the fMRI "double umbrella with fringes" (Fig. 5): a ~20-job
//     handle, a width-250 fork whose parallel jobs each also depend on a
//     dedicated fringe job, a join, a second width-250 fork, and a final
//     join; 773 jobs at width 250.
//   - Inspiral: the LIGO gravitational-wave pipeline with sliding-window
//     coincidence stages that weld the middle of the dag into one
//     non-bipartite component of well over 1,000 jobs; 2,988 jobs.
//   - Montage: the sky-mosaic pipeline whose projected images overlap on
//     a grid, giving a bipartite difference component of thousands of
//     jobs in which each source has a few to ten children, some shared
//     between neighbouring sources; 7,881 jobs.
//   - SDSS: the galaxy-cluster search whose field-matching stage is a
//     bipartite component in which every source has exactly three
//     children shared with its neighbours; 48,013 jobs.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/rng"
)

// AIRSNHandleLength is the number of jobs in the sequential "handle"
// that precedes the first fork (about twenty, per Section 3.3; 21 makes
// the dag exactly 773 jobs at width 250 and places the fork job at
// priority 753 as in Fig. 5).
const AIRSNHandleLength = 21

// AIRSN builds the fMRI dag of width w: 3w + 23 jobs.
func AIRSN(w int) *dag.Frozen {
	if w < 1 {
		panic(fmt.Sprintf("workloads: AIRSN width %d < 1", w))
	}
	g := dag.NewWithCapacity(3*w + AIRSNHandleLength + 2)
	// Handle chain h0 -> h1 -> ... ; the last handle job is the fork.
	handle := make([]int, AIRSNHandleLength)
	for i := range handle {
		handle[i] = g.AddNode(fmt.Sprintf("h%d", i))
		if i > 0 {
			g.MustAddArc(handle[i-1], handle[i])
		}
	}
	fork := handle[len(handle)-1]
	// Fringes: dedicated parents of the first cover's jobs.
	fringe := make([]int, w)
	for i := range fringe {
		fringe[i] = g.AddNode(fmt.Sprintf("f%d", i))
	}
	// First cover: each job depends on the fork and on its fringe.
	cover1 := make([]int, w)
	for i := range cover1 {
		cover1[i] = g.AddNode(fmt.Sprintf("c1.%d", i))
		g.MustAddArc(fork, cover1[i])
		g.MustAddArc(fringe[i], cover1[i])
	}
	join1 := g.AddNode("j1")
	for _, c := range cover1 {
		g.MustAddArc(c, join1)
	}
	cover2 := make([]int, w)
	for i := range cover2 {
		cover2[i] = g.AddNode(fmt.Sprintf("c2.%d", i))
		g.MustAddArc(join1, cover2[i])
	}
	join2 := g.AddNode("j2")
	for _, c := range cover2 {
		g.MustAddArc(c, join2)
	}
	return g.MustFreeze()
}

// AIRSNForkJob returns the index of the fork job (the black-framed
// bottleneck of Fig. 5) in a graph built by AIRSN.
func AIRSNForkJob(g *dag.Frozen) int {
	return g.IndexOf(fmt.Sprintf("h%d", AIRSNHandleLength-1))
}

// Inspiral builds the gravitational-wave search dag over s analysis
// segments and two detectors: 13s + 11 jobs (2,988 at s = 229).
//
// Structure: a config job feeds the pipeline setup, which fans out to
// one datafind job per detector (a short "handle", as in AIRSN); each
// per-segment template bank needs both its detector's datafind output
// and a dedicated per-segment science-segment job (the "fringes"), so
// prioritizing the datafind chain pays off exactly as in Fig. 5. Each
// template bank feeds a first-stage inspiral; per-segment coincidence
// combines the two detectors; trigbanks fan back out; second-stage
// inspirals follow. The second-stage followup (qscan) jobs feed the
// *adjacent* segments' final coincidence on both sides — a sliding
// cross-level window that welds second-stage inspirals, followups, and
// final coincidences into one non-bipartite component of 5s jobs, the
// "over 1000 jobs" component the paper reports. A summary/report tail
// closes the dag.
func Inspiral(s int) *dag.Frozen {
	if s < 2 {
		panic(fmt.Sprintf("workloads: Inspiral segments %d < 2", s))
	}
	g := dag.NewWithCapacity(13*s + 11)
	config := g.AddNode("config")
	setup := g.AddNode("setup")
	g.MustAddArc(config, setup)
	df := [2]int{}
	for d := 0; d < 2; d++ {
		calib := g.AddNode(fmt.Sprintf("calibration.%d", d))
		g.MustAddArc(setup, calib)
		df[d] = g.AddNode(fmt.Sprintf("datafind.%d", d))
		g.MustAddArc(calib, df[d])
	}
	seg := make([]int, s)
	for i := 0; i < s; i++ {
		seg[i] = g.AddNode(fmt.Sprintf("segment.%d", i))
	}
	tmplt := make([][2]int, s)
	insp := make([][2]int, s)
	for i := 0; i < s; i++ {
		for d := 0; d < 2; d++ {
			tmplt[i][d] = g.AddNode(fmt.Sprintf("tmpltbank.%d.%d", d, i))
			g.MustAddArc(df[d], tmplt[i][d])
			g.MustAddArc(seg[i], tmplt[i][d])
			insp[i][d] = g.AddNode(fmt.Sprintf("inspiral.%d.%d", d, i))
			g.MustAddArc(tmplt[i][d], insp[i][d])
		}
	}
	coinc := make([]int, s)
	trig := make([][2]int, s)
	insp2 := make([][2]int, s)
	qscan := make([][2]int, s)
	for i := 0; i < s; i++ {
		coinc[i] = g.AddNode(fmt.Sprintf("coinc.%d", i))
		g.MustAddArc(insp[i][0], coinc[i])
		g.MustAddArc(insp[i][1], coinc[i])
		for d := 0; d < 2; d++ {
			trig[i][d] = g.AddNode(fmt.Sprintf("trigbank.%d.%d", d, i))
			g.MustAddArc(coinc[i], trig[i][d])
			insp2[i][d] = g.AddNode(fmt.Sprintf("inspiral2.%d.%d", d, i))
			g.MustAddArc(trig[i][d], insp2[i][d])
			qscan[i][d] = g.AddNode(fmt.Sprintf("qscan.%d.%d", d, i))
			g.MustAddArc(insp2[i][d], qscan[i][d])
		}
	}
	coinc2 := make([]int, s)
	for i := 0; i < s; i++ {
		coinc2[i] = g.AddNode(fmt.Sprintf("coinc2.%d", i))
		for d := 0; d < 2; d++ {
			g.MustAddArc(insp2[i][d], coinc2[i])
			if i > 0 {
				g.MustAddArc(qscan[i-1][d], coinc2[i])
			}
			if i+1 < s {
				g.MustAddArc(qscan[i+1][d], coinc2[i])
			}
		}
	}
	summary := g.AddNode("summary")
	for i := 0; i < s; i++ {
		g.MustAddArc(coinc2[i], summary)
	}
	html := g.AddNode("html")
	g.MustAddArc(summary, html)
	plots := g.AddNode("plots")
	g.MustAddArc(html, plots)
	upload := g.AddNode("upload")
	g.MustAddArc(plots, upload)
	archive := g.AddNode("archive")
	g.MustAddArc(upload, archive)
	return g.MustFreeze()
}

// Montage builds the mosaic dag for a grid x grid field of images with
// diag extra diagonal overlaps: 2*grid^2 + 2*D + 7 jobs where
// D = 2*grid*(grid-1) + diag. The paper's Montage has 7,881 jobs,
// matched by grid = 36, diag = 121.
//
// Structure: a header job fans out to one projection per image;
// difference jobs compare pairs of neighbouring projections (the big
// bipartite component: each source has two to ten children, some shared
// with its neighbours); each difference is fitted; a concat joins the
// fits; a background model follows; per-image background corrections
// depend on the model and on the original projection; a table join, the
// final add, a shrink, and a JPEG rendering close the dag.
func Montage(grid, diag int) *dag.Frozen {
	if grid < 2 {
		panic(fmt.Sprintf("workloads: Montage grid %d < 2", grid))
	}
	if diag < 0 || diag > (grid-1)*(grid-1) {
		panic(fmt.Sprintf("workloads: Montage diag %d out of range", diag))
	}
	n := grid * grid
	g := dag.NewWithCapacity(6*n + 7)
	hdr := g.AddNode("mHdr")
	proj := make([]int, n)
	at := func(r, c int) int { return r*grid + c }
	for i := 0; i < n; i++ {
		proj[i] = g.AddNode(fmt.Sprintf("mProject.%d", i))
		g.MustAddArc(hdr, proj[i])
	}
	var diffs []int
	addDiff := func(a, b int) {
		d := g.AddNode(fmt.Sprintf("mDiff.%d", len(diffs)))
		g.MustAddArc(proj[a], d)
		g.MustAddArc(proj[b], d)
		diffs = append(diffs, d)
	}
	for r := 0; r < grid; r++ {
		for c := 0; c < grid; c++ {
			if c+1 < grid {
				addDiff(at(r, c), at(r, c+1))
			}
			if r+1 < grid {
				addDiff(at(r, c), at(r+1, c))
			}
		}
	}
	// Extra overlaps concentrated at the field's centre, where mosaic
	// tiles overlap most densely: walking cells centre-outward, each
	// cell contributes its diagonal, anti-diagonal, and skip-one
	// neighbour until diag extras are placed. This raises central
	// projection degrees toward ten, matching the paper's "from a few
	// to about ten children".
	added := 0
	centre := float64(grid-1) / 2
	cells := make([]int, 0, grid*grid)
	for i := 0; i < grid*grid; i++ {
		cells = append(cells, i)
	}
	sort.SliceStable(cells, func(a, b int) bool {
		da := dist2(cells[a]/grid, cells[a]%grid, centre)
		db := dist2(cells[b]/grid, cells[b]%grid, centre)
		return da < db
	})
	for _, cell := range cells {
		if added >= diag {
			break
		}
		r, c := cell/grid, cell%grid
		if r+1 < grid && c+1 < grid && added < diag {
			addDiff(at(r, c), at(r+1, c+1))
			added++
		}
		if r+1 < grid && c > 0 && added < diag {
			addDiff(at(r, c), at(r+1, c-1))
			added++
		}
		if c+2 < grid && added < diag {
			addDiff(at(r, c), at(r, c+2))
			added++
		}
	}
	fits := make([]int, len(diffs))
	for i, d := range diffs {
		fits[i] = g.AddNode(fmt.Sprintf("mFit.%d", i))
		g.MustAddArc(d, fits[i])
	}
	concat := g.AddNode("mConcatFit")
	for _, f := range fits {
		g.MustAddArc(f, concat)
	}
	bgModel := g.AddNode("mBgModel")
	g.MustAddArc(concat, bgModel)
	bg := make([]int, n)
	for i := 0; i < n; i++ {
		bg[i] = g.AddNode(fmt.Sprintf("mBackground.%d", i))
		g.MustAddArc(bgModel, bg[i])
		g.MustAddArc(proj[i], bg[i])
	}
	imgtbl := g.AddNode("mImgtbl")
	for _, b := range bg {
		g.MustAddArc(b, imgtbl)
	}
	add := g.AddNode("mAdd")
	g.MustAddArc(imgtbl, add)
	shrink := g.AddNode("mShrink")
	g.MustAddArc(add, shrink)
	jpeg := g.AddNode("mJPEG")
	g.MustAddArc(shrink, jpeg)
	return g.MustFreeze()
}

// SDSS builds the galaxy-cluster search dag over f sky fields grouped
// into the given number of calibration stripes: 4f + 2*stripes + 3 jobs
// (48,013 at f = 12,000, stripes = 5). f must be a positive multiple of
// stripes.
//
// Structure: per field, a target extraction (tsObj, a source) feeds a
// bright-red-galaxy search (brg). The field-matching stage is the
// bipartite component the paper describes: the brg jobs each have
// exactly three children (their own field match and the two
// neighbouring ones, on a ring), so neighbouring sources share
// children. Each field match additionally needs its stripe's
// calibration product — a handful of wide-fanout calib jobs fed by
// per-stripe extractions. The calib jobs play the role the fork job
// plays in AIRSN: FIFO reaches them only after burning thousands of
// steps on brg jobs whose field matches they gate, while prio schedules
// them first. Each field match feeds a cluster finder, a catalog joins
// everything, and an archive/publish tail closes the dag.
func SDSS(f, stripes int) *dag.Frozen {
	if stripes < 1 || f < stripes || f%stripes != 0 {
		panic(fmt.Sprintf("workloads: SDSS fields %d must be a positive multiple of stripes %d", f, stripes))
	}
	perStripe := f / stripes
	g := dag.NewWithCapacity(4*f + 2*stripes + 3)
	src := make([]int, f)
	for i := 0; i < f; i++ {
		src[i] = g.AddNode(fmt.Sprintf("tsObj.%d", i))
	}
	brg := make([]int, f)
	for i := 0; i < f; i++ {
		brg[i] = g.AddNode(fmt.Sprintf("brg.%d", i))
		g.MustAddArc(src[i], brg[i])
	}
	calib := make([]int, stripes)
	for s := 0; s < stripes; s++ {
		ts := g.AddNode(fmt.Sprintf("tsCal.%d", s))
		calib[s] = g.AddNode(fmt.Sprintf("calib.%d", s))
		g.MustAddArc(ts, calib[s])
	}
	fld := make([]int, f)
	for i := 0; i < f; i++ {
		fld[i] = g.AddNode(fmt.Sprintf("field.%d", i))
	}
	for i := 0; i < f; i++ {
		g.MustAddArc(brg[i], fld[(i+f-1)%f])
		g.MustAddArc(brg[i], fld[i])
		g.MustAddArc(brg[i], fld[(i+1)%f])
	}
	for i := 0; i < f; i++ {
		g.MustAddArc(calib[i/perStripe], fld[i])
	}
	catalog := g.AddNode("catalog")
	for i := 0; i < f; i++ {
		m := g.AddNode(fmt.Sprintf("maxBcg.%d", i))
		g.MustAddArc(fld[i], m)
		g.MustAddArc(m, catalog)
	}
	archive := g.AddNode("archive")
	g.MustAddArc(catalog, archive)
	publish := g.AddNode("publish")
	g.MustAddArc(archive, publish)
	return g.MustFreeze()
}

// Paper-scale constructors: the exact dags of Section 3.3.

// PaperAIRSN returns the AIRSN dag of width 250 (773 jobs).
func PaperAIRSN() *dag.Frozen { return AIRSN(250) }

// PaperInspiral returns the Inspiral dag (2,988 jobs).
func PaperInspiral() *dag.Frozen { return Inspiral(229) }

// PaperMontage returns the Montage dag (7,881 jobs).
func PaperMontage() *dag.Frozen { return Montage(36, 121) }

// PaperSDSS returns the SDSS dag (48,013 jobs).
func PaperSDSS() *dag.Frozen { return SDSS(12000, 5) }

// ByName returns the paper dag with the given lowercase name, scaled by
// the divisor (>= 1): scale 1 is paper scale; larger divisors shrink the
// dag proportionally while preserving its shape. Used by the commands
// and benchmarks.
func ByName(name string, scale int) (*dag.Frozen, error) {
	if scale < 1 {
		scale = 1
	}
	switch name {
	case "airsn":
		return AIRSN(max(1, 250/scale)), nil
	case "inspiral":
		return Inspiral(max(2, 229/scale)), nil
	case "montage":
		if scale == 1 {
			return PaperMontage(), nil
		}
		return Montage(max(2, 36/isqrt(scale)), 0), nil
	case "sdss":
		f := max(5, 12000/scale)
		f -= f % 5
		return SDSS(f, 5), nil
	default:
		return nil, fmt.Errorf("workloads: unknown dag %q (want airsn, inspiral, montage, sdss)", name)
	}
}

// Names lists the supported paper workloads in the order the paper
// presents them.
func Names() []string { return []string{"airsn", "inspiral", "montage", "sdss"} }

func isqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Layered builds a random layered dag for tests and benchmarks: layers
// of the given width, arcs only between consecutive layers with
// probability p, and every non-source guaranteed at least one parent.
func Layered(r *rng.Source, layers, width int, p float64) *dag.Frozen {
	if layers < 1 || width < 1 {
		panic("workloads: Layered needs at least one layer and one node")
	}
	g := dag.NewWithCapacity(layers * width)
	ids := make([][]int, layers)
	for l := 0; l < layers; l++ {
		ids[l] = make([]int, width)
		for w := 0; w < width; w++ {
			ids[l][w] = g.AddNode(fmt.Sprintf("L%d.%d", l, w))
		}
	}
	for l := 1; l < layers; l++ {
		for w := 0; w < width; w++ {
			linked := false
			for pw := 0; pw < width; pw++ {
				if r.Float64() < p {
					g.MustAddArc(ids[l-1][pw], ids[l][w])
					linked = true
				}
			}
			if !linked {
				g.MustAddArc(ids[l-1][r.Intn(width)], ids[l][w])
			}
		}
	}
	return g.MustFreeze()
}

// TileField builds a Montage-like multi-component dag for the
// schedule-cache benchmark, the scale tests and the priod load mix:
// `tiles` independent difference components (one per sky tile), each a
// connected bipartite block of s projected-image sources fanning out
// into overlapping difference-job sinks (each source feeds 2..k random
// sinks out of t). Out-degrees vary, so the blocks match none of the
// Fig. 2 families and the Recurse phase pays the full classify +
// outdegree-order + trace cost per tile. Tiles are structurally
// independent draws unless sharedShapes is true, in which case every
// tile repeats the same shape and a core.Cache collapses the
// Recurse phase to a single computation.
func TileField(r *rng.Source, tiles, s, t, k int, sharedShapes bool) *dag.Frozen {
	if tiles < 1 || s < 1 || t < 1 || k < 2 {
		panic("workloads: TileField needs tiles, s, t >= 1 and k >= 2")
	}
	g := dag.NewWithCapacity(tiles * (s + t))
	var shape [][]int // per-source sink offsets of tile 0, when shared
	for b := 0; b < tiles; b++ {
		src := make([]int, s)
		for i := range src {
			src[i] = g.AddNode(fmt.Sprintf("tile%d_p%d", b, i))
		}
		snk := make([]int, t)
		for j := range snk {
			snk[j] = g.AddNode(fmt.Sprintf("tile%d_d%d", b, j))
		}
		if b == 0 || !sharedShapes {
			shape = make([][]int, s)
			for i := range shape {
				deg := 2 + r.Intn(k-1)
				offs := make([]int, 0, deg)
				for d := 0; d < deg; d++ {
					offs = append(offs, r.Intn(t))
				}
				// Keep the tile connected through sink 0.
				if i == 0 || r.Float64() < 0.5 {
					offs[0] = 0
				}
				shape[i] = offs
			}
		}
		for i, offs := range shape {
			for _, o := range offs {
				g.AddArc(src[i], snk[o]) // duplicate draws are ignored
			}
		}
	}
	return g.MustFreeze()
}

func dist2(r, c int, centre float64) float64 {
	dr := float64(r) - centre
	dc := float64(c) - centre
	return dr*dr + dc*dc
}
