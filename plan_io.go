package stemroot

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
)

// planJSON is the stable on-disk schema of a sampling plan — the "sampling
// information" artifact the paper's Figure 5 pipeline embeds into the
// workload trace handed to the simulator.
type planJSON struct {
	Version        int           `json:"version"`
	Epsilon        float64       `json:"epsilon"`
	Confidence     float64       `json:"confidence"`
	PredictedError float64       `json:"predicted_error"`
	Clusters       []clusterJSON `json:"clusters"`
}

type clusterJSON struct {
	Kernel  string  `json:"kernel"`
	Members []int   `json:"members"`
	Samples []int   `json:"samples"`
	Weight  float64 `json:"weight"`
	Mean    float64 `json:"mean_us"`
	StdDev  float64 `json:"stddev_us"`
}

const planSchemaVersion = 1

// planChunk is the size at which WriteJSON flushes its buffer to the
// writer, so a plan with millions of members never sits in memory twice.
const planChunk = 64 << 10

// WriteJSON serializes the plan so a simulator-side consumer (possibly in
// another process or language) can replay exactly the sampled kernels and
// reproduce the weighted-sum estimate.
//
// The bytes are exactly what encoding/json's Encoder without SetIndent
// emits for planJSON, final newline included (FuzzPlanJSON pins it), but
// appended without reflection. Like the Encoder, it writes nothing when a
// float is not finite and returns a *json.UnsupportedValueError.
func (p *Plan) WriteJSON(w io.Writer) error {
	for _, f := range [...]float64{p.Epsilon, p.Confidence, p.PredictedError} {
		if err := finiteJSON(f); err != nil {
			return err
		}
	}
	// size bounds the encoded length, so a plan smaller than a chunk is
	// written from a buffer of its own size: a float takes at most 25
	// bytes, an index 20 and a comma, a name byte six escaped, and the keys
	// and brackets under 100 a cluster.
	size := 200
	for i := range p.Clusters {
		c := &p.Clusters[i]
		for _, f := range [...]float64{c.Weight, c.Mean, c.StdDev} {
			if err := finiteJSON(f); err != nil {
				return err
			}
		}
		size += 200 + 6*len(c.Kernel) + 21*(len(c.Members)+len(c.Samples))
	}

	e := planEncoder{w: w, buf: make([]byte, 0, min(planChunk+256, size))}
	e.buf = strconv.AppendInt(append(e.buf, "{\"version\":"...), planSchemaVersion, 10)
	e.float(",\"epsilon\":", p.Epsilon)
	e.float(",\"confidence\":", p.Confidence)
	e.float(",\"predicted_error\":", p.PredictedError)
	e.buf = append(e.buf, ",\"clusters\":"...)
	if len(p.Clusters) == 0 {
		e.buf = append(e.buf, "null"...)
	} else {
		// Clusters of one kernel are adjacent, so its escaped name is
		// computed once per run of clusters.
		var kernel string
		var quoted []byte
		open := "[{\"kernel\":"
		for i := range p.Clusters {
			c := &p.Clusters[i]
			if i == 0 || c.Kernel != kernel {
				var err error
				if quoted, err = json.Marshal(c.Kernel); err != nil {
					return err
				}
				kernel = c.Kernel
			}
			e.buf = append(e.buf, open...)
			open = ",{\"kernel\":"
			e.buf = append(e.buf, quoted...)
			e.ints(",\"members\":", c.Members)
			e.ints(",\"samples\":", c.Samples)
			e.float(",\"weight\":", c.Weight)
			e.float(",\"mean_us\":", c.Mean)
			e.float(",\"stddev_us\":", c.StdDev)
			e.buf = append(e.buf, '}')
			if e.err != nil {
				return e.err
			}
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, "}\n"...)
	e.flush()
	return e.err
}

// finiteJSON returns encoding/json's error for a float JSON cannot hold.
func finiteJSON(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

// planEncoder appends plan JSON to a bounded buffer; the first write error
// sticks and turns the rest into no-ops.
type planEncoder struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *planEncoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// float appends key and f the way encoding/json formats a float64: ES6
// number-to-string, i.e. %e only for exponents below -6 or above 20, with
// a two-digit negative exponent trimmed to one.
func (e *planEncoder) float(key string, f float64) {
	if len(e.buf) >= planChunk {
		e.flush()
	}
	e.buf = append(e.buf, key...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

// ints appends key and the index list; a nil list is null and an empty one
// [], as encoding/json has them.
func (e *planEncoder) ints(key string, xs []int) {
	e.buf = append(e.buf, key...)
	if xs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, x := range xs {
		if len(e.buf) >= planChunk {
			e.flush()
		}
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = strconv.AppendInt(e.buf, int64(x), 10)
	}
	e.buf = append(e.buf, ']')
}

// ReadPlanJSON deserializes a version-1 plan in any JSON layout, compact or
// indented. Whitespace may follow it; anything else (a second plan) is refused.
func ReadPlanJSON(r io.Reader) (*Plan, error) {
	var in planJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("stemroot: decode plan: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("stemroot: decode plan: data after the document")
	}
	if in.Version != planSchemaVersion {
		return nil, fmt.Errorf("stemroot: unsupported plan schema version %d", in.Version)
	}
	p := &Plan{
		Epsilon:        in.Epsilon,
		Confidence:     in.Confidence,
		PredictedError: in.PredictedError,
	}
	// A batch plan lists every cluster's members; a streaming plan lists
	// none (the weights carry the populations, the samples are stream
	// positions). A plan that does both is corrupt: its member-less
	// clusters would send a consumer's timeOf(s) outside the profile.
	hasMembers := false
	for i := range in.Clusters {
		hasMembers = hasMembers || len(in.Clusters[i].Members) > 0
	}
	for i, c := range in.Clusters {
		if c.Weight < 0 {
			return nil, fmt.Errorf("stemroot: cluster %q has negative weight", c.Kernel)
		}
		if hasMembers && len(c.Members) == 0 && len(c.Samples) > 0 {
			return nil, fmt.Errorf("stemroot: cluster %d (%q) has samples but no members", i, c.Kernel)
		}
		for _, ix := range c.Members {
			if ix < 0 {
				return nil, fmt.Errorf("stemroot: cluster %d (%q) has negative member index %d", i, c.Kernel, ix)
			}
		}
		for _, ix := range c.Samples {
			if ix < 0 {
				return nil, fmt.Errorf("stemroot: cluster %d (%q) has negative sample index %d", i, c.Kernel, ix)
			}
		}
		p.Clusters = append(p.Clusters, Cluster{
			Kernel:     c.Kernel,
			Members:    c.Members,
			Population: len(c.Members),
			Samples:    c.Samples,
			Weight:     c.Weight,
			Mean:       c.Mean,
			StdDev:     c.StdDev,
		})
	}
	return p, nil
}
