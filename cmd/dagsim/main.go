// Command dagsim performs a simulated dry run of a workflow under the
// paper's stochastic grid model: one execution of a DAGMan file (or a
// built-in workload) under a chosen scheduling policy, with an optional
// event trace showing every batch arrival, assignment, and completion.
// It answers "what would this workflow's execution look like on a grid
// with these batch parameters?" without a Condor pool.
//
// Usage:
//
//	dagsim -dag workflow.dag [-policy prio] [-bit 1] [-bs 16]
//	       [-seed 1] [-trace] [-maxevents 200]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dagsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dagsim", flag.ContinueOnError)
	dagSpec := fs.String("dag", "airsn", "workload name or DAGMan file")
	scale := fs.Int("scale", 1, "divide the paper workload size by this factor")
	policy := fs.String("policy", "prio", "scheduling policy: prio, fifo, random, critpath, heft, graphene, prio-maxjobs=N, or a C1+C2 tie-breaker chain")
	bit := fs.Float64("bit", 1, "mean batch interarrival time (mu_BIT)")
	bs := fs.Float64("bs", 16, "mean batch size (mu_BS)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	fail := fs.Float64("fail", 0, "per-assignment worker failure probability")
	trace := fs.Bool("trace", false, "print the event trace")
	maxEvents := fs.Int("maxevents", 200, "truncate the trace after this many events (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, label, err := cli.LoadDag(*dagSpec, *scale)
	if err != nil {
		return err
	}
	factory, err := sim.PolicyFactory(*policy, g)
	if err != nil {
		return err
	}
	params := sim.DefaultParams(*bit, *bs)
	params.FailureProb = *fail
	if err := params.Validate(); err != nil {
		return err
	}

	var obs sim.Observer
	if *trace {
		obs = &tracer{w: w, g: g, max: *maxEvents}
	}
	m := sim.RunObserved(g, params, factory(), rng.New(*seed), obs)

	fmt.Fprintf(w, "dag=%s jobs=%d policy=%s muBIT=%g muBS=%g seed=%d\n",
		label, g.NumNodes(), *policy, *bit, *bs, *seed)
	fmt.Fprintf(w, "execution time: %.3f\n", m.ExecutionTime)
	fmt.Fprintf(w, "batches: %d (stall probability %.4f)\n", m.Batches, m.StallProbability)
	fmt.Fprintf(w, "requests: %d (utilization %.4f)\n", m.Requests, m.Utilization)
	return nil
}

// tracer prints one line per event, truncating after max events.
type tracer struct {
	w      io.Writer
	g      *dag.Frozen
	max    int
	events int
	muted  bool
}

func (t *tracer) emit(format string, args ...interface{}) {
	if t.max > 0 && t.events >= t.max {
		if !t.muted {
			fmt.Fprintf(t.w, "... trace truncated after %d events (-maxevents)\n", t.max)
			t.muted = true
		}
		return
	}
	t.events++
	fmt.Fprintf(t.w, format, args...)
}

func (t *tracer) BatchArrived(at float64, size, served int) {
	t.emit("%10.3f  batch    size=%d served=%d\n", at, size, served)
}

func (t *tracer) Assigned(at float64, job int) {
	t.emit("%10.3f  assign   %s\n", at, t.g.Name(job))
}

func (t *tracer) Completed(at float64, job int) {
	t.emit("%10.3f  complete %s\n", at, t.g.Name(job))
}

func (t *tracer) Failed(at float64, job int) {
	t.emit("%10.3f  FAILED   %s (requeued)\n", at, t.g.Name(job))
}
