package profiler

import (
	"testing"

	"stemroot/internal/hwmodel"
	"stemroot/internal/workloads"
)

func testProfiler() *Profiler {
	return New(hwmodel.New(hwmodel.RTX2080, 1))
}

func TestNSYSProducesValidProfile(t *testing.T) {
	w := workloads.Rodinia(1)[0]
	p := testProfiler()
	prof, ov := p.NSYS(w)
	if err := prof.Validate(w); err != nil {
		t.Fatal(err)
	}
	if ov.Factor() <= 1 {
		t.Fatalf("nsys overhead factor %v should exceed 1", ov.Factor())
	}
	if ov.Factor() > 10 {
		t.Fatalf("nsys overhead factor %v too large for lightweight profiling", ov.Factor())
	}
}

func TestOverheadOrdering(t *testing.T) {
	// Table 5's qualitative ordering on ML workloads:
	// NSYS << BBV < NVBit << NCU.
	w := workloads.CASIO(1, 0.02)[0]
	p := testProfiler()
	_, nsys := p.NSYS(w)
	ncu := p.NCU(w)
	nvbit := p.NVBitInstr(w)
	bbv := p.NVBitBBV(w, 100, 64)

	if !(nsys.Factor() < bbv.Factor() && bbv.Factor() < nvbit.Factor() && nvbit.Factor() < ncu.Factor()) {
		t.Fatalf("overhead ordering violated: nsys=%.1f bbv=%.1f nvbit=%.1f ncu=%.1f",
			nsys.Factor(), bbv.Factor(), nvbit.Factor(), ncu.Factor())
	}
}

func TestNCUOverheadExplodesOnKernelDenseWorkloads(t *testing.T) {
	// Rodinia: few long kernels -> moderate NCU overhead. CASIO: many
	// short kernels -> launch-dominated, enormous overhead (paper: 35x vs
	// 3704x).
	p := testProfiler()
	rodinia := p.NCU(workloads.Rodinia(1)[3]) // cfd: long kernels
	casio := p.NCU(workloads.CASIO(1, 0.02)[0])
	if casio.Factor() < 2*rodinia.Factor() {
		t.Fatalf("NCU overhead should explode on CASIO: rodinia=%.1f casio=%.1f",
			rodinia.Factor(), casio.Factor())
	}
}

func TestBBVProcessingGrowsWithReps(t *testing.T) {
	w := workloads.CASIO(1, 0.02)[0]
	p := testProfiler()
	few := p.NVBitBBV(w, 10, 64)
	many := p.NVBitBBV(w, 10000, 800)
	if many.InstrumentedUS <= few.InstrumentedUS {
		t.Fatal("BBV processing should grow with representative count and dimension")
	}
}

func TestOverheadDays(t *testing.T) {
	o := Overhead{OriginalUS: 1, InstrumentedUS: 86400 * 1e6}
	if d := o.Days(); d != 1 {
		t.Fatalf("days = %v, want 1", d)
	}
	if (Overhead{}).Factor() != 0 {
		t.Fatal("zero original should give factor 0")
	}
}
