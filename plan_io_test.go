package stemroot

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	names, times := syntheticProfile(6000, 5)
	plan, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlanJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clusters) != len(plan.Clusters) {
		t.Fatalf("cluster count: %d vs %d", len(got.Clusters), len(plan.Clusters))
	}
	if got.Epsilon != plan.Epsilon || got.PredictedError != plan.PredictedError {
		t.Fatal("metadata lost")
	}
	// The estimator must behave identically on the round-tripped plan.
	timeOf := func(i int) float64 { return times[i] }
	if got.Estimate(timeOf) != plan.Estimate(timeOf) {
		t.Fatal("estimates diverge after round trip")
	}
}

func TestReadPlanJSONErrors(t *testing.T) {
	if _, err := ReadPlanJSON(strings.NewReader("{broken")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := ReadPlanJSON(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("expected version error")
	}
	if _, err := ReadPlanJSON(strings.NewReader(
		`{"version":1,"clusters":[{"kernel":"k","weight":-1}]}`)); err == nil {
		t.Fatal("expected weight validation error")
	}
}

// TestIndentedPlanFilesStayReadable: a plan file written while WriteJSON
// indented reads back as the same plan as its compact bytes do.
func TestIndentedPlanFilesStayReadable(t *testing.T) {
	names, times := syntheticProfile(6000, 5)
	plan, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	indented, err := indentedPlanJSON(plan)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := plan.WriteJSON(&compact); err != nil {
		t.Fatal(err)
	}
	if 2*compact.Len() > len(indented) {
		t.Fatalf("compact plan is %d bytes, indented %d: not half", compact.Len(), len(indented))
	}
	old, err := ReadPlanJSON(bytes.NewReader(indented))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ReadPlanJSON(&compact)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, cur) {
		t.Fatal("the indented and the compact encoding read back as different plans")
	}
}

// TestReadPlanJSONRefusesTrailingBytes: whitespace after the document, the
// writer's final newline included, is accepted; anything else is refused,
// a second plan too.
func TestReadPlanJSONRefusesTrailingBytes(t *testing.T) {
	names, times := syntheticProfile(3000, 5)
	plan, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	for _, tail := range []string{"", " \t\r\n\n"} {
		if _, err := ReadPlanJSON(strings.NewReader(js + tail)); err != nil {
			t.Errorf("trailing %q refused: %v", tail, err)
		}
	}
	for _, tail := range []string{"garbage", "}", "]", "0", "null", js} {
		for _, doc := range []string{js + tail, strings.TrimSuffix(js, "\n") + tail} {
			if _, err := ReadPlanJSON(strings.NewReader(doc)); err == nil {
				t.Errorf("plan followed by %.20q accepted", tail)
			}
		}
	}
}

func TestReadPlanJSONRejectsBadIndices(t *testing.T) {
	for _, c := range []struct{ doc, want string }{
		{`{"version":1,"clusters":[{"kernel":"k","members":[0,-1],"samples":[0],"weight":1}]}`, `cluster 0 ("k") has negative member`},
		{`{"version":1,"clusters":[{"kernel":"a","members":[0],"samples":[0],"weight":1},{"kernel":"k","members":[1],"samples":[-7],"weight":1}]}`, `cluster 1 ("k") has negative sample`},
		{`{"version":1,"clusters":[{"kernel":"a","members":[0],"samples":[0],"weight":1},{"kernel":"k","members":[],"samples":[1],"weight":1}]}`, `cluster 1 ("k") has samples but no members`},
		{`{"version":1,"clusters":[{"kernel":"a","members":[0],"samples":[0],"weight":1},{"kernel":"k","samples":[1],"weight":1}]}`, `cluster 1 ("k") has samples but no members`},
	} {
		if _, err := ReadPlanJSON(strings.NewReader(c.doc)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadPlanJSON(%s): err = %v, want %q", c.doc, err, c.want)
		}
	}
	// A streaming plan materializes no members anywhere; that is its shape,
	// not a defect.
	stream := `{"version":1,"clusters":[{"kernel":"k","members":null,"samples":[5,9],"weight":2.5}]}`
	if _, err := ReadPlanJSON(strings.NewReader(stream)); err != nil {
		t.Fatalf("streaming plan rejected: %v", err)
	}
}

// referencePlanJSON is the encoder WriteJSON stands in for: reflective
// encoding/json without SetIndent. WriteJSON must emit its bytes.
func referencePlanJSON(p *Plan) ([]byte, error) { return encodePlanJSON(p, "") }

// indentedPlanJSON is what WriteJSON wrote while its contract was the
// Encoder with a two-space indent: every plan file from before it went
// compact holds these bytes.
func indentedPlanJSON(p *Plan) ([]byte, error) { return encodePlanJSON(p, "  ") }

func encodePlanJSON(p *Plan, indent string) ([]byte, error) {
	out := planJSON{
		Version:        planSchemaVersion,
		Epsilon:        p.Epsilon,
		Confidence:     p.Confidence,
		PredictedError: p.PredictedError,
	}
	for _, c := range p.Clusters {
		out.Clusters = append(out.Clusters, clusterJSON{
			Kernel: c.Kernel, Members: c.Members, Samples: c.Samples,
			Weight: c.Weight, Mean: c.Mean, StdDev: c.StdDev,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", indent)
	err := enc.Encode(out)
	return buf.Bytes(), err
}

func checkPlanJSONMatchesReference(t *testing.T, p *Plan) []byte {
	t.Helper()
	want, wantErr := referencePlanJSON(p)
	var got bytes.Buffer
	err := p.WriteJSON(&got)
	if wantErr != nil {
		var a, b *json.UnsupportedValueError
		if !errors.As(wantErr, &a) || !errors.As(err, &b) || a.Str != b.Str {
			t.Fatalf("WriteJSON error %v, encoding/json error %v", err, wantErr)
		}
		if got.Len() != 0 {
			t.Fatalf("WriteJSON wrote %d bytes before failing", got.Len())
		}
		return nil
	}
	if err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from encoding/json\n got: %s\nwant: %s", got.Bytes(), want)
	}
	return got.Bytes()
}

func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	long := make([]int, 40000) // several flushes inside one list
	for i := range long {
		long[i] = i * 7919
	}
	plans := []*Plan{
		{},
		{Clusters: []Cluster{}},
		{Epsilon: 0.05, Confidence: 0.95, PredictedError: 1e-9, Clusters: []Cluster{
			{Kernel: "<script>&\u2028\xff\"q\\\n", Members: nil, Samples: []int{}, Weight: 1e22, Mean: 1e21, StdDev: 1e-7},
			{Kernel: "<script>&\u2028\xff\"q\\\n", Members: []int{0}, Samples: []int{0, 0}, Weight: 1e20, Mean: 1e-6, StdDev: 123456789.125},
			{Kernel: "", Members: long, Samples: long[:3], Weight: math.Copysign(0, -1), Mean: 5e-324, StdDev: math.MaxFloat64},
			{Kernel: "kernel<<<1,2>>>(float*)", Members: []int{math.MaxInt64, 0}, Samples: []int{math.MinInt64}, Weight: -2.5e-10, Mean: 100, StdDev: 0.1},
		}},
		{Epsilon: math.NaN()},
		{Clusters: []Cluster{{Kernel: "k", Weight: 1}, {Kernel: "k", StdDev: math.Inf(-1)}}},
	}
	for _, p := range plans {
		checkPlanJSONMatchesReference(t, p)
	}

	names, times := syntheticProfile(6000, 5)
	plan, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPlanJSONMatchesReference(t, plan)
}

// errAfter fails every write after the first n bytes.
type errAfter struct{ n int }

func (w *errAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestWriteJSONReportsWriteError(t *testing.T) {
	names, times := syntheticProfile(30000, 5)
	plan, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, planChunk + 1000} {
		if err := plan.WriteJSON(&errAfter{n: n}); err == nil || err.Error() != "disk full" {
			t.Fatalf("write failing after %d bytes: err = %v", n, err)
		}
	}
}

// TestWriteJSONAllocs pins the encoder's allocations to the number of
// kernel names, not the number of members.
func TestWriteJSONAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		names, times := syntheticProfile(n, 5)
		plan, err := Sample(names, times, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := plan.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(3000), allocs(60000)
	if large > small+4 || large > 32 {
		t.Fatalf("WriteJSON allocations grow with members: %v at 3000 invocations, %v at 60000", small, large)
	}

	// A plan smaller than one chunk is not written from a whole chunk.
	names, times := syntheticProfile(300, 5)
	plan, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	const calls = 10
	runtime.ReadMemStats(&before)
	for range calls {
		if err := plan.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= planChunk {
		t.Fatalf("writing a %d-member plan allocates %d bytes a call, a chunk is %d", len(names), per, planChunk)
	}
}

func TestSmallSampleTOption(t *testing.T) {
	names, times := syntheticProfile(6000, 6)
	z, err := Sample(names, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tt, err := Sample(names, times, Options{SmallSampleT: true})
	if err != nil {
		t.Fatal(err)
	}
	if tt.TotalSamples() < z.TotalSamples() {
		t.Fatalf("t-corrected plan smaller: %d vs %d", tt.TotalSamples(), z.TotalSamples())
	}
}
