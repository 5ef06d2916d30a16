// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run table3            # any of the ids below
//	experiments -run all -scale paper  # full evaluation at paper scale
//	experiments -run fig11 -cachedir /tmp/segcache  # reuse segments across runs
//
// Simulator-bound experiments share a content-addressed segment-result
// cache (internal/simcache): identical ground-truth segments are simulated
// once per process, and with -cachedir once per directory, which concurrent
// runs may share. Output is bit-identical with and without any cache tier (a
// damaged pack record degrades to a simulation); -nocache disables caching
// entirely, and the per-tier hit/miss/byte counters land on stderr unless
// -cachestats=false. Every run simulates on the exact engine.
//
// Experiment ids: table2, fig1, table3, fig7, fig8, fig9, fig10, fig11,
// table4 (alias: dse), fig12, fig13, fig14, table5, flush, kkt, rootk,
// root, warmup, multigpu, confidence — all of which -run all runs, in this
// order.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"stemroot/internal/cliopts"
	"stemroot/internal/experiments"
	"stemroot/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := mainErr(); err != nil {
		log.Fatal(err)
	}
}

// mainErr is main's body. It returns its error instead of exiting where the
// error happens, so the deferred cleanup — the cachenet drain that delivers
// this run's segments, the stats reports, the profile stop — runs before
// main exits non-zero.
func mainErr() error {
	run := flag.String("run", "table3", "experiment id (or comma list, or 'all')")
	scale := flag.String("scale", "quick", "quick or paper")
	seed := flag.Uint64("seed", 1, "seed")
	reps := flag.Int("reps", 0, "override repetitions (0 = scale default)")
	var sim cliopts.Flags
	sim.Register(flag.CommandLine, false)
	flag.Parse()

	cfg, err := config(*scale, *seed, *reps)
	if err != nil {
		return err
	}
	stop, err := sim.StartProfiles()
	if err != nil {
		return err
	}
	defer stop()

	opts, finish, err := sim.Options()
	if err != nil {
		return err
	}
	defer finish()
	cfg.Sim = opts
	return runExperiments(cfg, *run, os.Stdout)
}

// config resolves -scale, -seed and -reps. Only -reps 0 selects the scale's
// repetitions; a negative count is refused.
func config(scale string, seed uint64, reps int) (experiments.Config, error) {
	var cfg experiments.Config
	switch scale {
	case "quick":
		cfg = experiments.Quick()
	case "paper":
		cfg = experiments.PaperScale()
	default:
		return cfg, fmt.Errorf("unknown scale %q", scale)
	}
	if reps < 0 {
		return cfg, fmt.Errorf("-reps must be 0 (the scale's default) or more, got %d", reps)
	}
	cfg.Seed = seed
	if reps > 0 {
		cfg.Reps = reps
	}
	return cfg, nil
}

// state is one invocation: its configuration and the two results that
// more than one id renders, computed once.
type state struct {
	cfg experiments.Config
	t3  *experiments.Table3Result // feeds fig7, fig8, fig9
	t4  *experiments.Table4Result // feeds fig12
}

func (s *state) table3() (_ *experiments.Table3Result, err error) {
	if s.t3 == nil {
		s.t3, err = experiments.Table3(s.cfg)
	}
	return s.t3, err
}

func (s *state) table4() (_ *experiments.Table4Result, err error) {
	if s.t4 == nil {
		s.t4, err = experiments.Table4(s.cfg)
	}
	return s.t4, err
}

// experiment is one row of the dispatch table.
type experiment struct {
	id    string
	alias string // second accepted spelling, "" for none
	run   func(*state) (string, error)
}

// from pairs a result getter with its renderer.
func from[T any](get func(*state) (T, error), render func(T) string) func(*state) (string, error) {
	return func(s *state) (string, error) {
		res, err := get(s)
		if err != nil {
			return "", err
		}
		return render(res), nil
	}
}

// of is from for a runner that needs only the configuration.
func of[T any](run func(experiments.Config) (T, error), render func(T) string) func(*state) (string, error) {
	return from(func(s *state) (T, error) { return run(s.cfg) }, render)
}

// perWorkload renders the Table 3 rows of two suites, concatenated.
func perWorkload(render func([]experiments.Row) string, a, b string) func(*state) (string, error) {
	return from((*state).table3, func(res *experiments.Table3Result) string {
		return render(append(res.PerWorkload[a], res.PerWorkload[b]...))
	})
}

// table lists every experiment in -run all order. Dispatch, the all list,
// validation and the unknown-id message all read it; the package comment
// repeats its ids (TestPackageCommentListsEveryID).
var table = []experiment{
	{"table2", "", of(experiments.Table2, experiments.RenderTable2)},
	{"fig1", "", of(experiments.Figure1, experiments.RenderFigure1)},
	{"table3", "", from((*state).table3, (*experiments.Table3Result).Render)},
	{"fig7", "", perWorkload(experiments.RenderFigure7, workloads.SuiteRodinia, workloads.SuiteCASIO)},
	{"fig8", "", perWorkload(experiments.RenderFigure8, workloads.SuiteRodinia, workloads.SuiteCASIO)},
	{"fig9", "", perWorkload(experiments.RenderFigure9, workloads.SuiteCASIO, workloads.SuiteHuggingFace)},
	{"fig10", "", of(experiments.Figure10, experiments.RenderFigure10)},
	{"fig11", "", of(experiments.Figure11, experiments.RenderFigure11)},
	{"table4", "dse", from((*state).table4, (*experiments.Table4Result).Render)},
	{"fig12", "", from((*state).table4, func(res *experiments.Table4Result) string {
		return experiments.RenderFigure12(res.Figure12)
	})},
	{"fig13", "", of(experiments.Figure13, (*experiments.Figure13Result).Render)},
	{"fig14", "", of(experiments.Figure14, (*experiments.Figure14Result).Render)},
	{"table5", "", of(experiments.Table5, (*experiments.Table5Result).Render)},
	{"flush", "", of(experiments.FlushAblation, (*experiments.FlushResult).Render)},
	{"kkt", "", of(experiments.KKTAblation, (*experiments.KKTAblationResult).Render)},
	{"rootk", "", of(experiments.RootKAblation, experiments.RenderRootK)},
	{"root", "", of(experiments.RootAblation, (*experiments.RootAblationResult).Render)},
	{"warmup", "", of(experiments.WarmupAblation, experiments.RenderWarmup)},
	{"multigpu", "", of(experiments.MultiGPU, experiments.RenderMultiGPU)},
	{"confidence", "", of(func(cfg experiments.Config) (*experiments.ConfidenceResult, error) {
		return experiments.Confidence(cfg, 100)
	}, (*experiments.ConfidenceResult).Render)},
}

// lookup returns the table row that id names, nil for none.
func lookup(id string) *experiment {
	for i := range table {
		if e := &table[i]; id == e.id || (e.alias != "" && id == e.alias) {
			return e
		}
	}
	return nil
}

// runExperiments runs the requested experiment ids in order, writing each
// rendered table to out under a heading of the id as typed. Every id is
// resolved before the first runner starts: a typo at the end of a list
// must not cost the minutes the ids before it take.
func runExperiments(cfg experiments.Config, run string, out io.Writer) error {
	ids := strings.Split(run, ",")
	if strings.TrimSpace(run) == "all" {
		ids = ids[:0]
		for _, e := range table {
			ids = append(ids, e.id)
		}
	}
	exps := make([]*experiment, len(ids))
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		if exps[i] = lookup(ids[i]); exps[i] == nil {
			return fmt.Errorf("unknown experiment %q (valid: %s)", ids[i], validIDs())
		}
	}
	s := &state{cfg: cfg}
	for i, e := range exps {
		fmt.Fprintf(out, "==== %s ====\n", ids[i])
		rendered, err := e.run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", ids[i], err)
		}
		fmt.Fprint(out, rendered)
		fmt.Fprintln(out)
	}
	return nil
}

// validIDs lists what -run accepts, in table order.
func validIDs() string {
	var ids []string
	for _, e := range table {
		ids = append(ids, e.id)
		if e.alias != "" {
			ids = append(ids, e.alias)
		}
	}
	return strings.Join(append(ids, "all"), ", ")
}
