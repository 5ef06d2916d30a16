package main

import (
	"os"
	"strings"
	"testing"

	"stemroot/internal/experiments"
	"stemroot/internal/simcache"
)

func testCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Reps = 1
	return cfg
}

func TestRunExperimentsSingle(t *testing.T) {
	var buf strings.Builder
	if err := runExperiments(testCfg(), "table2", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"==== table2 ====", "rodinia", "casio", "huggingface"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExperimentsCommaList(t *testing.T) {
	var buf strings.Builder
	if err := runExperiments(testCfg(), "kkt,rootk", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "==== kkt ====") || !strings.Contains(out, "==== rootk ====") {
		t.Fatalf("missing sections:\n%s", out)
	}
}

func TestRunExperimentsSharedTable3(t *testing.T) {
	// fig7 and fig8 both consume the lazily computed Table 3.
	var buf strings.Builder
	if err := runExperiments(testCfg(), "fig7,fig8", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "heartwall") {
		t.Fatal("figure output missing workloads")
	}
}

func TestRunExperimentsUnknownID(t *testing.T) {
	var buf strings.Builder
	err := runExperiments(testCfg(), "fig99", &buf)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("expected unknown-id error, got %v", err)
	}
}

// TestRunExperimentsValidatesUpFront pins that an unknown id anywhere in
// the list fails before the first runner starts: nothing is written, and
// the error names the trimmed id and the valid ones.
func TestRunExperimentsValidatesUpFront(t *testing.T) {
	var buf strings.Builder
	err := runExperiments(testCfg(), "table2, typo", &buf)
	if err == nil || !strings.Contains(err.Error(), `"typo"`) || !strings.Contains(err.Error(), "confidence") {
		t.Fatalf("expected an error naming \"typo\" and the valid ids, got %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("output written before validation failed:\n%s", buf.String())
	}
}

// TestRunExperimentsEpochSweepRetired pins that the par engine's epoch
// sweep is gone from the product: its id is unknown, and is refused before
// anything runs.
func TestRunExperimentsEpochSweepRetired(t *testing.T) {
	var buf strings.Builder
	err := runExperiments(testCfg(), "table2,epochsweep", &buf)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "epochsweep"`) {
		t.Fatalf("epochsweep: got %v, want an unknown-id error", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("output written before validation failed:\n%s", buf.String())
	}
	if lookup("epochsweep") != nil || strings.Contains(validIDs(), "epochsweep") {
		t.Fatal("epochsweep is still in the dispatch table")
	}
}

// TestConfigRefusesNegativeReps: only -reps 0 means the scale's default; a
// negative count is refused by name instead, and so is an unknown -scale.
func TestConfigRefusesNegativeReps(t *testing.T) {
	for _, reps := range []int{-1, -3} {
		if _, err := config("quick", 1, reps); err == nil || !strings.Contains(err.Error(), "-reps") {
			t.Fatalf("-reps %d: err = %v, want one naming -reps", reps, err)
		}
	}
	if _, err := config("huge", 1, 0); err == nil || !strings.Contains(err.Error(), `"huge"`) {
		t.Fatalf("-scale huge: err = %v, want one naming the scale", err)
	}
	for _, c := range []struct {
		scale      string
		reps, want int
	}{{"quick", 0, experiments.Quick().Reps}, {"paper", 0, experiments.PaperScale().Reps}, {"quick", 3, 3}} {
		cfg, err := config(c.scale, 7, c.reps)
		if err != nil || cfg.Reps != c.want || cfg.Seed != 7 {
			t.Fatalf("-scale %s -reps %d: reps %d seed %d (%v), want reps %d seed 7", c.scale, c.reps, cfg.Reps, cfg.Seed, err, c.want)
		}
	}
}

// TestRunExperimentsTrimsID pins that a stray space around an id changes
// nothing, the heading included.
func TestRunExperimentsTrimsID(t *testing.T) {
	var padded, plain strings.Builder
	if err := runExperiments(testCfg(), "table2, fig7 ", &padded); err != nil {
		t.Fatal(err)
	}
	if err := runExperiments(testCfg(), "table2,fig7", &plain); err != nil {
		t.Fatal(err)
	}
	if padded.String() != plain.String() {
		t.Fatalf("\" fig7 \" differs from \"fig7\":\n%s\nwant:\n%s", padded.String(), plain.String())
	}
}

// TestRunExperimentsEveryID runs the whole table — all, then the one
// alias — and checks the headings arrive in table order, so no row can rot
// unrun, and that dse is table4 under its own heading. Quick() scale with
// the simulated invocations cut to a quarter: table4 is most of the run,
// and under -race the full 40 calls cost minutes.
func TestRunExperimentsEveryID(t *testing.T) {
	cfg := testCfg()
	cfg.DSEMaxCalls = 10
	cache, err := simcache.New(simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sim.Cache = cache // stdout is bit-identical cached; dse below is all hits
	render := func(run string) string {
		var buf strings.Builder
		if err := runExperiments(cfg, run, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	all := render("all")
	at := 0
	for _, e := range table {
		head := "==== " + e.id + " ====\n"
		i := strings.Index(all[at:], head)
		if i < 0 {
			t.Fatalf("-run all misses %s, or runs it out of table order", e.id)
		}
		at += i + len(head)
	}
	_, t4, _ := strings.Cut(all, "==== table4 ====\n")
	t4, _, _ = strings.Cut(t4, "==== fig12 ====\n")
	if dse := render("dse"); dse != "==== dse ====\n"+t4 {
		t.Fatalf("dse is not table4 under its own heading:\n%s\nwant body:\n%s", dse, t4)
	}
}

// TestPackageCommentListsEveryID keeps the one hand-written copy of the id
// list — the command's doc comment — in step with the table.
func TestPackageCommentListsEveryID(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	_, ids, _ := strings.Cut(doc, "Experiment ids:")
	for _, e := range table {
		for _, id := range []string{e.id, e.alias} {
			if !strings.Contains(ids, id) {
				t.Errorf("package comment does not list %q", id)
			}
		}
	}
}
