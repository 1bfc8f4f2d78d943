package main

// The sim-grid workload: the Section 4 PRIO-versus-FIFO comparison run
// through sim.CompareGrid exactly as cmd/simgrid runs it, on
// paper-scale Inspiral and SDSS at mu_BIT = 1, with mu_BS at each dag's
// best-gain point and its two neighbours.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// gridDag is one dag's grid: its points, its two policies and the
// experiment options. P and Q are fixed, so the replication count never
// depends on the seed.
type gridDag struct {
	name   string
	g      *dag.Frozen
	points []sim.Params
	p, q   int
	prio   func() sim.Policy
	fifo   func() sim.Policy
	opts   sim.ExperimentOptions
}

func (d *gridDag) reps() int { return 2 * len(d.points) * d.p * d.q }

var gridSpecs = []struct {
	name string
	gen  func() *dag.Frozen
	bs   []float64 // mu_BS values
	p, q int
}{
	{"inspiral", workloads.PaperInspiral, []float64{1 << 8, 1 << 9, 1 << 10}, 16, 16},
	{"sdss", workloads.PaperSDSS, []float64{1 << 12, 1 << 13, 1 << 14}, 8, 8},
}

// setupGrid builds both dags and their policy factories. The PRIO
// factory computes the PRIO order, so core runs here and nowhere else
// on this workload.
func setupGrid(seed uint64) ([]*gridDag, error) {
	var ds []*gridDag
	for _, s := range gridSpecs {
		g := s.gen()
		prio, err := sim.PolicyFactory("prio", g)
		if err != nil {
			return nil, err
		}
		fifo, err := sim.PolicyFactory("fifo", g)
		if err != nil {
			return nil, err
		}
		d := &gridDag{name: s.name, g: g, p: s.p, q: s.q, prio: prio, fifo: fifo,
			opts: sim.ExperimentOptions{P: s.p, Q: s.q, Seed: seed, Workers: runtime.NumCPU(), Confidence: 95}}
		for _, bs := range s.bs {
			d.points = append(d.points, sim.DefaultParams(1, bs))
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// checkRow reports why a grid row is not a finite, valid comparison.
func checkRow(c sim.Comparison) string {
	for _, ci := range []struct {
		name string
		ci   stats.RatioCI
	}{{"time", c.ExecTime}, {"stall", c.Stalling}, {"util", c.Utilization}} {
		v := ci.ci
		if !v.Valid {
			return ci.name + " CI invalid"
		}
		for _, x := range []float64{v.Lo, v.Median, v.Hi} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return ci.name + " CI not finite"
			}
		}
		if v.Lo > v.Median || v.Median > v.Hi {
			return fmt.Sprintf("%s CI out of order: %v", ci.name, v)
		}
	}
	return ""
}

// checkGrid checks every pass's rows: each finite and valid, every pass
// identical to the first, and the first point identical to a
// Workers=1 run of it.
func checkGrid(d *gridDag, passes [][]sim.Comparison) (attempted, failed int, unexpected []string) {
	one := d.opts
	one.Workers = 1
	ref := sim.CompareGrid(d.g, d.points[:1], d.prio, d.fifo, one, nil)[0]
	for pi, rows := range passes {
		for i, c := range rows {
			attempted++
			why := checkRow(c)
			if why == "" && !reflect.DeepEqual(c, passes[0][i]) {
				why = "differs from the first pass"
			}
			if why == "" && i == 0 && !reflect.DeepEqual(c, ref) {
				why = "differs from a Workers=1 run"
			}
			if why != "" {
				failed++
				unexpected = append(unexpected, fmt.Sprintf("%s pass %d row %d: %s", d.name, pi, i, why))
			}
		}
	}
	return attempted, failed, unexpected
}

func runSimGrid(e *env) (*outcome, error) {
	var ds []*gridDag
	setup, err := timeSetup(func() error {
		var err error
		ds, err = setupGrid(e.seed)
		if err != nil {
			return err
		}
		// Warm-up: one replication pair per dag.
		for _, d := range ds {
			w := d.opts
			w.P, w.Q = 1, 1
			sim.CompareGrid(d.g, d.points[:1], d.prio, d.fifo, w, nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	settle()
	rss := startRSS()
	// Per dag, each grid pass's wall time and this process's CPU time.
	walls := make([][]float64, len(ds))
	cpus := make([][]float64, len(ds))
	passes := make([][][]sim.Comparison, len(ds))
	start := time.Now()
	for len(walls[0]) < 3 || time.Since(start).Seconds() < e.seconds {
		for i, d := range ds {
			t, c := time.Now(), cpuTime()
			rows := sim.CompareGrid(d.g, d.points, d.prio, d.fifo, d.opts, nil)
			walls[i] = append(walls[i], ms(time.Since(t)))
			cpus[i] = append(cpus[i], ms(cpuTime()-c))
			passes[i] = append(passes[i], rows)
		}
	}
	peak := rss.peakMB()
	logf("sim-grid: %d passes in %.1fs", len(walls[0]), time.Since(start).Seconds())

	o := &outcome{}
	reps, wallT, cpuT := 0, 0.0, 0.0
	for i, d := range ds {
		att, fail, unexp := checkGrid(d, passes[i])
		o.attempted += att
		o.failed += fail
		o.unexpected = append(o.unexpected, unexp...)
		m := median(walls[i])
		reps += d.reps()
		wallT += m
		cpuT += median(cpus[i])
		o.setN("sim_reps_per_s."+d.name, float64(d.reps())/(m/1000), "reps/s", len(walls[i]))
		o.setN("grid_wall_ms."+d.name, m, "ms", len(walls[i]))
		o.setN("max_grid_wall_ms."+d.name, maxOf(walls[i]), "ms", len(walls[i]))
	}
	n := len(walls[0])
	o.setN("sim_reps_per_s", float64(reps)/(wallT/1000), "reps/s", n)
	o.set("reps_per_pass", float64(reps), "count")
	o.setN("setup_s", setup, "s", setupRepeats)
	o.set("peak_rss_mb", peak, "MB")
	o.setN("throughput_per_cpu_s", float64(reps)/(cpuT/1000), "1/s", n)
	o.setN("pass_a_cpu_ms", median(cpus[0]), "ms", n)
	o.setN("pass_b_cpu_ms", median(cpus[1]), "ms", n)
	return o, nil
}
