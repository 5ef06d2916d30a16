// Package servetrace generates deterministic LLM-serving kernel traces in
// the KernelSight-LM style (PAPERS.md, arXiv 2606.28565): requests with a
// prefill phase and a per-token decode phase, batch-size-dependent kernel
// durations, and bursty / diurnal / multi-tenant arrival dynamics. Traces
// are produced on the fly in O(1) memory — a 10⁷-invocation stream is
// never materialized — and every Scan replays the identical sequence, so a
// Stream feeds the streaming planner or a CSV pipe, as often as needed.
package servetrace

import (
	"errors"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"

	"stemroot/internal/rng"
	"stemroot/internal/trace"
)

// Config shapes a serving trace; only Invocations is required.
type Config struct {
	// Seed fixes the whole trace: same Config -> bit-identical stream.
	Seed uint64
	// Invocations is the exact number of kernel invocations emitted.
	Invocations int
}

// The served model and its traffic: the transformer depth driving the
// per-phase kernel mix (each layer contributes distinct kernel names), the
// traffic sources with distinct load weights and prompt-length regimes,
// and the cap on the simulated continuous-batching size.
const (
	layers   = 4
	tenants  = 3
	maxBatch = 32
)

// Stream is a deterministic, re-scannable serving-trace source.
type Stream struct {
	Cfg Config

	names [][]byte // interned kernel names, built lazily
}

// New returns a Stream for cfg.
func New(cfg Config) *Stream {
	return &Stream{Cfg: cfg}
}

// Kernel-name layout: per layer {qkv, attn, mlp} × {prefill, decode}, plus
// request-level kv_append and sampler kernels.
const kernelsPerLayer = 3

func (s *Stream) kernelNames() [][]byte {
	if s.names != nil {
		return s.names
	}
	names := make([][]byte, 0, 2*kernelsPerLayer*layers+2)
	for _, phase := range []string{"prefill", "decode"} {
		for l := 0; l < layers; l++ {
			for _, k := range []string{"qkv", "attn", "mlp"} {
				names = append(names, []byte(k+"_"+phase+"_l"+strconv.Itoa(l)))
			}
		}
	}
	names = append(names, []byte("kv_append"), []byte("sampler"))
	s.names = names
	return names
}

// NumKernels reports the number of distinct kernel names the stream emits
// — the #names term of the planner's memory bound.
func (s *Stream) NumKernels() int { return len(s.kernelNames()) }

// genState is the per-Scan generator state; a fresh one per Scan is what
// makes the stream re-scannable.
type genState struct {
	r *rng.Rand

	reqIndex  int
	batch     float64 // smoothed continuous-batching size
	burstLeft int     // requests remaining in the current burst
	burstMul  float64

	tenantW []float64 // cumulative tenant weights
}

func (s *Stream) newGen() *genState {
	g := &genState{
		r:        rng.New(rng.Derive(s.Cfg.Seed, 0x5e8f7a0e)),
		batch:    1,
		burstMul: 1,
	}
	// Tenant load weights: deterministic, skewed (tenant 0 heaviest).
	g.tenantW = make([]float64, tenants)
	var cum float64
	for i := 0; i < tenants; i++ {
		cum += 1 / float64(i+1)
		g.tenantW[i] = cum
	}
	for i := range g.tenantW {
		g.tenantW[i] /= cum
	}
	return g
}

// load returns the instantaneous arrival intensity in [0.05, ~3]:
// a diurnal sinusoid over the request index modulated by Poisson-ish
// bursts.
func (g *genState) load() float64 {
	diurnal := 0.55 + 0.45*math.Sin(2*math.Pi*float64(g.reqIndex)/4096)
	if g.burstLeft > 0 {
		g.burstLeft--
	} else {
		g.burstMul = 1
		if g.r.Float64() < 0.02 { // a burst starts
			g.burstLeft = 8 + g.r.Intn(56)
			g.burstMul = 2 + 2*g.r.Float64()
		}
	}
	return diurnal * g.burstMul
}

// request describes one serving request's generation parameters.
type request struct {
	tenant  int
	prompt  int // prefill tokens
	decode  int // output tokens
	batch   int // continuous-batching size during this request
	durMul  float64
	kvScale float64
}

func (s *Stream) nextRequest(g *genState) request {
	ld := g.load()
	// Continuous batching: the smoothed batch size tracks load.
	g.batch += 0.3 * (ld*maxBatch/3 - g.batch)
	b := int(g.batch + 0.5)
	if b < 1 {
		b = 1
	}
	b = min(b, maxBatch)

	// Tenant by cumulative weight; tenants differ in prompt regimes.
	u := g.r.Float64()
	tenant := 0
	for u > g.tenantW[tenant] && tenant < len(g.tenantW)-1 {
		tenant++
	}
	prompt := int(64 * (1 + float64(tenant)) * math.Exp(0.5*g.r.NormFloat64()))
	if prompt < 8 {
		prompt = 8
	}
	if prompt > 8192 {
		prompt = 8192
	}
	decode := int(32 * math.Exp(0.6*g.r.NormFloat64()))
	if decode < 1 {
		decode = 1
	}
	if decode > 1024 {
		decode = 1024
	}
	g.reqIndex++
	return request{
		tenant:  tenant,
		prompt:  prompt,
		decode:  decode,
		batch:   b,
		durMul:  math.Exp(0.08 * g.r.NormFloat64()),
		kvScale: 1 + float64(prompt)/2048,
	}
}

var errInvocations = errors.New("servetrace: Config.Invocations must be positive")

// Duration model (microseconds). Prefill kernels scale with prompt length
// (attention quadratically, saturated); decode kernels scale with batch
// size and KV length. Each emission carries small lognormal noise.
//
// scan is the generator behind every output of a Stream: it yields exactly
// Cfg.Invocations (kernel, duration) pairs, kernel indexing kernelNames().
// It is serial by nature — every duration draws from the one RNG sequence —
// so what does not depend on the draw is computed once per request (or per
// token, for decode attention) and a row costs its draw, one Exp and one
// multiplication. The factors keep the operations and the order of the
// per-row formulas they were hoisted out of,
//
//	prefill: (base_k(prompt) + 2) · durMul · noise
//	decode:  base_k(batch, kvLen) · durMul · noise
//
// so every duration is bit-identical to evaluating those per row; the
// float64 conversions round each base where the per-row formula stored it,
// which keeps an FMA-fusing compiler to the same operations.
func (s *Stream) scan(yield func(kernel int, timeUS float64) bool) error {
	if s.Cfg.Invocations <= 0 {
		return errInvocations
	}
	g := s.newGen()
	decode0 := layers * kernelsPerLayer // first decode kernel
	kvAppendK, samplerK := 2*layers*kernelsPerLayer, 2*layers*kernelsPerLayer+1
	remaining := s.Cfg.Invocations
	emit := func(kernel int, d float64) bool {
		remaining--
		return yield(kernel, d) && remaining > 0
	}
	noise := func() float64 { return math.Exp(0.05 * g.r.NormFloat64()) }
	for remaining > 0 {
		req := s.nextRequest(g)
		p, b := float64(req.prompt), float64(req.batch)
		prefill := [kernelsPerLayer]float64{
			(float64(0.004*p) + 2) * req.durMul,               // qkv projection: linear in tokens
			(float64(0.0008*p*math.Sqrt(p)) + 2) * req.durMul, // attention: superlinear, saturated
			(float64(0.006*p) + 2) * req.durMul,               // mlp
		}
		decode := [kernelsPerLayer]float64{
			float64(1.5+0.12*b) * req.durMul, // qkv: batch-bound
			0,                                // attention: KV-length bound, set per token
			float64(2.0+0.18*b) * req.durMul, // mlp
		}
		attn := 0.8 + 0.10*b
		kvAppend := (0.4 + 0.02*b) * req.kvScale
		sampler := 0.6 + 0.03*b

		// Prefill: one pass over the layers.
		for l := 0; l < layers; l++ {
			for k := 0; k < kernelsPerLayer; k++ {
				if !emit(l*kernelsPerLayer+k, prefill[k]*noise()) {
					return nil
				}
			}
		}
		// Decode: per output token, a layer sweep plus KV append + sampling.
		for tok := 0; tok < req.decode; tok++ {
			kvLen := req.prompt + tok
			decode[1] = float64(attn+0.0015*float64(kvLen)*b) * req.durMul
			for l := 0; l < layers; l++ {
				for k := 0; k < kernelsPerLayer; k++ {
					if !emit(decode0+l*kernelsPerLayer+k, decode[k]*noise()) {
						return nil
					}
				}
			}
			if !emit(kvAppendK, kvAppend*noise()) {
				return nil
			}
			if !emit(samplerK, sampler) {
				return nil
			}
		}
	}
	return nil
}

// ScanBytes yields exactly Cfg.Invocations (name, duration) pairs, with
// names as interned []byte slices (valid beyond the call — they are owned
// by the Stream). Every call replays the identical sequence.
func (s *Stream) ScanBytes(yield func(name []byte, timeUS float64) bool) error {
	names := s.kernelNames()
	return s.scan(func(kernel int, t float64) bool { return yield(names[kernel], t) })
}

// Scan implements the string-name profile-scanner contract (one string
// conversion per row; use ScanBytes for the zero-alloc path).
func (s *Stream) Scan(yield func(name string, timeUS float64) bool) error {
	return s.ScanBytes(func(name []byte, t float64) bool {
		return yield(string(name), t)
	})
}

// chunkRows is the unit of work between WriteCSV's stages: large enough
// that three channel operations per chunk do not show, small enough that a
// ring of them stays in cache (EXPERIMENTS, "Serving-trace writer").
const chunkRows = 4096

// maxFormatters caps WriteCSV's formatter goroutines. Rendering a row costs
// about three times generating it, and generation is serial, so a fifth
// formatter would only wait — and every formatter adds two chunks to the
// ring.
const maxFormatters = 4

// rowChunk is a run of consecutive rows on its way through WriteCSV: filled
// by the generator, rendered into out by a formatter, written, reused.
type rowChunk struct {
	seq    int // sequence number of the first row
	n      int // rows filled
	kernel []int32
	timeUS []float64
	out    []byte        // the rows as CSV; the capacity fits any n rows
	done   chan struct{} // capacity 1: out is rendered
}

func (c *rowChunk) format(enc *trace.RowEncoder, names []string) {
	out := c.out[:0]
	if c.seq == 0 {
		out = append(out, trace.ProfileHeader...)
	}
	for i, k := range c.kernel[:c.n] {
		out = enc.AppendRow(out, c.seq+i, names[k], c.timeUS[i])
	}
	c.out = out
}

// WriteCSV streams the trace as a profile CSV ("seq,name,time_us") without
// materializing it, in three stages: the generator runs on the calling
// goroutine and fills fixed-size chunks of rows; N = min(GOMAXPROCS,
// maxFormatters) formatter goroutines render chunks through
// trace.RowEncoder; a writer goroutine writes them in sequence order. The
// bytes written do not depend on N, and memory is a ring of at most 2N+2
// chunks whatever the trace length. The first error out returns is the
// error returned: generation stops within the ring's depth of it, and every
// goroutine has exited before WriteCSV returns.
func (s *Stream) WriteCSV(out io.Writer) error {
	_, err := s.writeCSV(out)
	return err
}

// writeCSV is WriteCSV, reporting how many rows were generated.
func (s *Stream) writeCSV(out io.Writer) (int, error) {
	if s.Cfg.Invocations <= 0 {
		return 0, errInvocations
	}
	formatters := min(runtime.GOMAXPROCS(0), maxFormatters)
	rows := min(chunkRows, s.Cfg.Invocations)
	ring := min(2*formatters+2, (s.Cfg.Invocations+rows-1)/rows)
	formatters = min(formatters, ring)

	names := make([]string, s.NumKernels())
	maxRow := 0
	for i, n := range s.kernelNames() {
		names[i] = string(n)
		maxRow = max(maxRow, trace.MaxRowLen(names[i]))
	}
	// Every send below is of one of the ring's chunks to a channel with
	// room for the whole ring, so only receives can block.
	free := make(chan *rowChunk, ring)
	work := make(chan *rowChunk, ring)
	inOrder := make(chan *rowChunk, ring)
	for i := 0; i < ring; i++ {
		free <- &rowChunk{
			kernel: make([]int32, rows),
			timeUS: make([]float64, rows),
			out:    make([]byte, 0, len(trace.ProfileHeader)+rows*maxRow),
			done:   make(chan struct{}, 1),
		}
	}

	var wg sync.WaitGroup
	wg.Add(formatters + 1)
	for i := 0; i < formatters; i++ {
		go func() {
			defer wg.Done()
			var enc trace.RowEncoder
			for c := range work {
				c.format(&enc, names)
				c.done <- struct{}{}
			}
		}()
	}
	// The writer stops recycling chunks at its first error, so after it the
	// generator finds at most the rest of the ring free.
	var werr error
	failed := make(chan struct{})
	go func() {
		defer wg.Done()
		for c := range inOrder {
			<-c.done
			if _, werr = out.Write(c.out); werr != nil {
				close(failed)
				return
			}
			free <- c
		}
	}()

	generated := 0
	var c *rowChunk // the chunk being filled
	dispatch := func() {
		work <- c
		inOrder <- c
		c = nil
	}
	// Invocations was checked above, and scan has no other error.
	_ = s.scan(func(kernel int, t float64) bool {
		if c == nil {
			select {
			case c = <-free:
				c.seq, c.n = generated, 0
			case <-failed:
				return false
			}
		}
		c.kernel[c.n], c.timeUS[c.n] = int32(kernel), t
		c.n++
		generated++
		if c.n == len(c.kernel) {
			dispatch()
		}
		return true
	})
	if c != nil {
		dispatch()
	}
	close(work)
	close(inOrder)
	wg.Wait()
	return generated, werr
}
