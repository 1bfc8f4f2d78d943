// Command simgrid regenerates the evaluation figures of Section 4
// (Figures 6-9): for a chosen dag it sweeps the (mu_BIT, mu_BS)
// parameter grid, compares two scheduling policies (PRIO vs FIFO by
// default; -policy/-against accept any sim.PolicyFactory name), and
// prints one row per grid point with the three metric ratios (expected
// execution time, probability of stalling, expected utilization) as
// medians with 95% confidence intervals. -policies sweeps several
// numerators against one shared baseline in a single run: the last
// comma-separated name is the denominator for every other name, each
// pair's rows preceded by a "# ratios are NUM/DEN" header (and every
// json row carries its pair in policy/against fields, so NDJSON output
// stays self-describing).
//
// The whole grid runs as one flat parallel workload (sim.CompareGrid):
// every point overlaps in execution, rows still print in row-major
// order as they complete, and a per-row elapsed/ETA line goes to
// stderr. -format switches the stdout rows between the human table,
// TSV, and JSON (one object per line), so grid runs can feed
// machine-readable trajectories.
//
// The paper's grid is mu_BIT in {10^-3 .. 10^3} and mu_BS in
// {2^0 .. 2^16}, with p = q = 300; defaults here are laptop-scale and
// can be raised to paper scale with -p 300 -q 300 -scale 1.
//
// Paper-scale sweeps take hours, so they can be split and interrupted:
// -shard i/n computes only every n-th grid point (1-based shard i),
// -checkpoint FILE persists each completed point to a JSONL manifest,
// and -resume reloads a manifest — skipping finished points and
// rejecting a checkpoint that belongs to a different sweep. Rows
// restored from the checkpoint print bit-identically to freshly
// computed ones, so the concatenated output of shards 1..n (or of an
// interrupted run and its resume) is byte-identical to one flat run.
// See docs/OPERATIONS.md for the runbook.
//
// Usage:
//
//	simgrid -dag airsn [-scale 4] [-bit 10^-1,10^0,10^1] [-bs 2^2,2^4,2^6]
//	        [-p 40] [-q 40] [-seed 1] [-workers N] [-format table|tsv|json]
//	        [-policy prio -against fifo | -policies heft,graphene,fifo]
//	        [-shard i/n] [-checkpoint FILE [-resume]]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "simgrid:", err)
		os.Exit(1)
	}
}

// jsonCI mirrors stats.RatioCI for -format json. Invalid intervals keep
// zero bounds (JSON has no NaN) and valid=false.
type jsonCI struct {
	Median float64 `json:"median"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Valid  bool    `json:"valid"`
}

func toJSONCI(ci stats.RatioCI) jsonCI {
	if !ci.Valid {
		return jsonCI{}
	}
	return jsonCI{Median: ci.Median, Lo: ci.Lo, Hi: ci.Hi, Valid: true}
}

// jsonRow is one grid point in -format json, one object per line. The
// policy pair is embedded in every row so multi-pair sweeps
// (-policies) stay pure NDJSON with self-describing lines.
type jsonRow struct {
	Policy  string  `json:"policy"`
	Against string  `json:"against"`
	MuBIT   float64 `json:"mu_bit"`
	MuBS    float64 `json:"mu_bs"`
	Time    jsonCI  `json:"time"`
	Stall   jsonCI  `json:"stall"`
	Util    jsonCI  `json:"util"`
}

// tsvCell renders one CI bound for -format tsv; invalid intervals print
// NaN so columns stay numeric.
func tsvCell(ci stats.RatioCI, v float64) string {
	if !ci.Valid {
		v = math.NaN()
	}
	return fmt.Sprintf("%g", v)
}

func writeRow(w io.Writer, format string, gp sim.GridPoint, policy, against string) error {
	switch format {
	case "table":
		_, err := fmt.Fprintln(w, gp.FormatRow())
		return err
	case "tsv":
		cols := []string{fmt.Sprintf("%g", gp.MuBIT), fmt.Sprintf("%g", gp.MuBS)}
		for _, ci := range []stats.RatioCI{gp.ExecTime, gp.Stalling, gp.Utilization} {
			cols = append(cols, tsvCell(ci, ci.Median), tsvCell(ci, ci.Lo), tsvCell(ci, ci.Hi))
		}
		for i, c := range cols {
			if i > 0 {
				if _, err := io.WriteString(w, "\t"); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	case "json":
		row := jsonRow{
			Policy: policy, Against: against,
			MuBIT: gp.MuBIT, MuBS: gp.MuBS,
			Time:  toJSONCI(gp.ExecTime),
			Stall: toJSONCI(gp.Stalling),
			Util:  toJSONCI(gp.Utilization),
		}
		enc, err := json.Marshal(row)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", enc)
		return err
	default:
		return fmt.Errorf("-format %q: want table, tsv, or json", format)
	}
}

func run(args []string, w, ew io.Writer) error {
	fs := flag.NewFlagSet("simgrid", flag.ContinueOnError)
	dagSpec := fs.String("dag", "airsn", "workload name (airsn, inspiral, montage, sdss) or DAGMan file")
	scale := fs.Int("scale", 4, "divide the paper workload size by this factor (1 = paper scale)")
	bits := fs.String("bit", "10^-3,10^-2,10^-1,10^0,10^1,10^2,10^3", "comma list of mu_BIT values (a^b supported)")
	bss := fs.String("bs", "2^0,2^2,2^4,2^6,2^8,2^10,2^12,2^14,2^16", "comma list of mu_BS values (a^b supported)")
	p := fs.Int("p", 40, "samples in the empirical sampling distribution")
	q := fs.Int("q", 40, "measurements averaged per sample")
	seed := fs.Uint64("seed", 1, "experiment seed")
	workers := fs.Int("workers", 0, "parallel replications (0 = all CPUs)")
	policy := fs.String("policy", "prio", "numerator policy (any sim.PolicyFactory name: prio, fifo, random, critpath, heft, graphene, prio-maxjobs=N, C1+C2 chains)")
	against := fs.String("against", "fifo", "denominator policy (same names)")
	policies := fs.String("policies", "", "comma-separated factory names; each is swept against the last (overrides -policy/-against; incompatible with -shard/-checkpoint)")
	fail := fs.Float64("fail", 0, "per-assignment worker failure probability")
	format := fs.String("format", "table", "output format: table, tsv, or json (one object per line)")
	shardSpec := fs.String("shard", "", "compute only shard i of n, given as i/n (1-based); all shards must use an identical grid")
	checkpoint := fs.String("checkpoint", "", "persist each completed grid point to this JSONL manifest")
	resume := fs.Bool("resume", false, "reload -checkpoint and skip the points it already holds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "table", "tsv", "json":
	default:
		return fmt.Errorf("-format %q: want table, tsv, or json", *format)
	}
	shard, err := parseShard(*shardSpec)
	if err != nil {
		return err
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	g, label, err := cli.LoadDag(*dagSpec, *scale)
	if err != nil {
		return err
	}
	muBITs, err := cli.ParseFloats(*bits)
	if err != nil {
		return fmt.Errorf("-bit: %w", err)
	}
	muBSs, err := cli.ParseFloats(*bss)
	if err != nil {
		return fmt.Errorf("-bs: %w", err)
	}

	// The policy pairs to sweep: one from -policy/-against, or several
	// from -policies (each name against the last). All factories are
	// resolved before any output, so a bad name anywhere fails clean.
	type pair struct {
		num, den         string
		numFact, denFact func() sim.Policy
	}
	var pairs []pair
	if *policies != "" {
		if *checkpoint != "" || *shardSpec != "" {
			return fmt.Errorf("-policies cannot be combined with -checkpoint or -shard (checkpoint manifests describe a single policy pair; sweep pairs one at a time)")
		}
		names := strings.Split(*policies, ",")
		if len(names) < 2 {
			return fmt.Errorf("-policies %q: want at least two comma-separated names (the last is the shared baseline)", *policies)
		}
		den := names[len(names)-1]
		denFact, err := sim.PolicyFactory(den, g)
		if err != nil {
			return err
		}
		for _, num := range names[:len(names)-1] {
			numFact, err := sim.PolicyFactory(num, g)
			if err != nil {
				return err
			}
			pairs = append(pairs, pair{num: num, den: den, numFact: numFact, denFact: denFact})
		}
	} else {
		numFact, err := sim.PolicyFactory(*policy, g)
		if err != nil {
			return err
		}
		denFact, err := sim.PolicyFactory(*against, g)
		if err != nil {
			return err
		}
		pairs = []pair{{num: *policy, den: *against, numFact: numFact, denFact: denFact}}
	}

	points := make([]sim.Params, 0, len(muBITs)*len(muBSs))
	for _, bit := range muBITs {
		for _, bs := range muBSs {
			params := sim.DefaultParams(bit, bs)
			params.FailureProb = *fail
			if err := params.Validate(); err != nil {
				return fmt.Errorf("point mu_bit=%g mu_bs=%g: %w", bit, bs, err)
			}
			points = append(points, params)
		}
	}

	opts := sim.ExperimentOptions{P: *p, Q: *q, Seed: *seed, Workers: *workers, Confidence: 95, Shard: shard}
	comment := func(f string, a ...any) {
		if *format != "json" { // keep json output pure NDJSON
			fmt.Fprintf(w, f, a...)
		}
	}
	comment("# dag=%s jobs=%d arcs=%d  p=%d q=%d seed=%d\n", label, g.NumNodes(), g.NumArcs(), *p, *q, *seed)
	if *format == "tsv" {
		fmt.Fprintln(w, "mu_bit\tmu_bs\ttime_med\ttime_lo\ttime_hi\tstall_med\tstall_lo\tstall_hi\tutil_med\tutil_lo\tutil_hi")
	}

	start := time.Now()
	for _, pr := range pairs {
		comment("# ratios are %s/%s: median [95%% CI]; <1 means %s wins on time/stall, >1 on utilization\n",
			pr.num, pr.den, pr.num)

		// Checkpointing: completed points already in the manifest are not
		// recomputed (their rows print from the persisted distributions,
		// bit-identically), and each newly computed point is appended as
		// it finishes, so an interruption costs at most one in-flight
		// point. Only single-pair sweeps checkpoint (guarded above).
		var have map[int]sim.PointSample
		var save func(int, sim.PointSample)
		var saveErr error
		if *checkpoint != "" {
			man, err := sim.OpenManifest(*checkpoint, g, points, pr.numFact().Name(), pr.denFact().Name(), opts, *resume)
			if err != nil {
				return err
			}
			defer man.Close()
			have = man.Have()
			save = func(i int, s sim.PointSample) {
				if err := man.Append(i, points[i], s); err != nil && saveErr == nil {
					saveErr = err
				}
			}
			if len(have) > 0 {
				fmt.Fprintf(ew, "checkpoint %s: %d/%d points already done\n", *checkpoint, len(have), len(points))
			}
		}

		// The rows this sweep will print: owned by the shard or
		// restored from the checkpoint. Foreign points (another
		// shard's, not yet checkpointed) are skipped entirely.
		covered := 0
		for i := range points {
			if _, ok := have[i]; ok || i%shard.Count == shard.Index {
				covered++
			}
		}

		pairStart := time.Now()
		done := 0
		var rowErr error
		sim.CompareGridResume(g, points, pr.numFact, pr.denFact, opts, have, save, func(i int, c sim.Comparison) {
			gp := sim.GridPoint{MuBIT: points[i].BatchInterarrival, MuBS: points[i].BatchSize, Comparison: c}
			if err := writeRow(w, *format, gp, pr.num, pr.den); err != nil && rowErr == nil {
				rowErr = err
			}
			done++
			elapsed := time.Since(pairStart)
			eta := time.Duration(float64(elapsed) / float64(done) * float64(covered-done))
			fmt.Fprintf(ew, "row %d/%d muBIT=%g muBS=%g elapsed=%v eta=%v\n",
				done, covered, gp.MuBIT, gp.MuBS,
				elapsed.Round(time.Millisecond), eta.Round(time.Millisecond))
		})
		if rowErr != nil {
			return rowErr
		}
		if saveErr != nil {
			return fmt.Errorf("checkpoint %s: %w", *checkpoint, saveErr)
		}
	}
	comment("# total sweep time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// parseShard parses the 1-based "-shard i/n" syntax into the engine's
// 0-based Shard; an empty spec means the whole grid.
func parseShard(spec string) (sim.Shard, error) {
	if spec == "" {
		return sim.Shard{Index: 0, Count: 1}, nil
	}
	var i, n int
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil || i < 1 || n < 1 || i > n {
		return sim.Shard{}, fmt.Errorf("-shard %q: want i/n with 1 <= i <= n", spec)
	}
	return sim.Shard{Index: i - 1, Count: n}, nil
}
