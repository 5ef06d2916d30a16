package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSummarizeMatchesExclusiveQuantiles(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 8, 32},
		{[]float64{3}, 3, 3, 3},
	}
	for _, tc := range cases {
		s := summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v n %d, want %v %v %v", tc.xs, s.Q1, s.Median, s.Q3, s.N, tc.q1, tc.med, tc.q3)
		}
	}
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Min != 1 || s.Max != 10 || math.Abs(s.iqrShare()-1) > 1e-12 {
		t.Errorf("min %v max %v iqr share %v, want 1 10 1", s.Min, s.Max, s.iqrShare())
	}
	if z := summarize(nil); z.N != 0 || z.iqrShare() != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100): a [10,40) holding a1 [10,20) and a2 [20,40) back to
	// back; b [40,40) zero-length; a again [50,90) holding c [60,60).
	tr := &tracer{Spans: []span{
		{Name: "pipeline.root", Start: 0, End: 100, Parent: -1},
		{Name: "x.a", Start: 10, End: 40, Parent: 0},
		{Name: "x.a1", Start: 10, End: 20, Parent: 1},
		{Name: "x.a2", Start: 20, End: 40, Parent: 1},
		{Name: "x.b", Start: 40, End: 40, Parent: 0},
		{Name: "x.a", Start: 50, End: 90, Parent: 0},
		{Name: "x.c", Start: 60, End: 60, Parent: 5},
	}}
	got := tr.selfTimes(0, tr.mark())
	want := map[string]layerTime{
		"pipeline.root": {Count: 1, SelfNS: 30, SpanNS: 100},
		"x.a":           {Count: 2, SelfNS: 40, SpanNS: 70}, // nested children cover all of the first
		"x.a1":          {Count: 1, SelfNS: 10, SpanNS: 10},
		"x.a2":          {Count: 1, SelfNS: 20, SpanNS: 20},
		"x.b":           {Count: 1},
		"x.c":           {Count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v\nwant %+v", got, want)
	}
	var sum int64
	for _, lt := range got {
		sum += lt.SelfNS
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
	// A window leaves out spans, and parents, before it.
	if w := tr.selfTimes(5, 7); w["x.a"].SelfNS != 40 || len(w) != 2 {
		t.Errorf("windowed selfTimes = %+v", w)
	}
}

func TestTracerNesting(t *testing.T) {
	var none *tracer
	none.end(none.begin("x.y")) // a nil tracer records nothing and does not panic

	tr := newTracer("run", "w")
	a := tr.begin("x.a")
	b := tr.begin("x.b")
	tr.end(b)
	c := tr.begin("x.c")
	tr.end(c)
	tr.end(a)
	d := tr.begin("x.d")
	tr.end(d)
	parents := []int{-1, a, a, -1}
	for i, s := range tr.Spans {
		if s.Parent != parents[i] || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d", i, s, parents[i])
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// requires every named metric, no failed check (which includes the
// decomposed replay matching the pipeline bit for bit), and nothing left
// behind but the trace files.
func TestSmoke(t *testing.T) {
	for _, def := range workloadDefs {
		def := def
		t.Run(def.name, func(t *testing.T) {
			out := t.TempDir()
			for _, traced := range []bool{false, true} {
				cfg := &config{workload: def.name, seed: 7, seconds: 0.05, trace: traced, outDir: out, size: toySizes, workers: 2}
				res, err := measure(cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Errorf("trace=%v: correct %v, %d of %d checks failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.Name]
					if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: metric %s = %+v (present %v)", traced, s.Name, m, ok)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, m.Value)
					}
				}
			}
			left, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 1 || left[0].Name() != "trace-"+def.name+".json" {
				t.Errorf("left behind: %v", left)
			}
		})
	}
}

func TestMeasureRejectsUnknownWorkload(t *testing.T) {
	if _, err := measure(&config{workload: "nope", outDir: t.TempDir(), size: toySizes, workers: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own tables the
// same list.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d = %+v, want %s: %s", i, w, workloadDefs[i].name, workloadDefs[i].why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 128", len(perLayer))
	}
}
