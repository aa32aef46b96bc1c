package scalemodel

import (
	"math"
	"testing"
)

func TestTCMPEffectiveShape(t *testing.T) {
	p := DefaultParams()
	if TCMPEffective(0, p) != 0 {
		t.Fatal("0 engines should have 0 capacity")
	}
	if TCMPEffective(1, p) != 1 {
		t.Fatalf("1 engine = %g", TCMPEffective(1, p))
	}
	// Monotone increase with diminishing increments over product range.
	prev, prevIncr := 1.0, 1.0
	for n := 2; n <= 10; n++ {
		e := TCMPEffective(n, p)
		if e <= prev {
			t.Fatalf("TCMP capacity not increasing at %d engines: %g <= %g", n, e, prev)
		}
		incr := e - prev
		if incr >= prevIncr {
			t.Fatalf("TCMP increment not diminishing at %d: %g >= %g", n, incr, prevIncr)
		}
		prev, prevIncr = e, incr
	}
	// Far beyond the product limit the curve flattens hard (< 60% of
	// ideal by 16 engines).
	if e := TCMPEffective(16, p); e > 0.6*16 {
		t.Fatalf("TCMP(16) = %g, want strong flattening", e)
	}
}

func TestSingleSystemBaseline(t *testing.T) {
	r := Sysplex(1, DefaultParams())
	// One engine, no data sharing: effective capacity ≈ 1.
	if r.EffectiveCap < 0.9 || r.EffectiveCap > 1.05 {
		t.Fatalf("1-system effective capacity = %g, want ≈1", r.EffectiveCap)
	}
	if r.CPUUtil < 0.9 {
		t.Fatalf("saturation drive failed: util = %g", r.CPUUtil)
	}
	if r.CFUtil != 0 {
		t.Fatalf("single system used the CF: %g", r.CFUtil)
	}
}

func TestDataSharingCostWithinPaperBound(t *testing.T) {
	c := Claims(DefaultParams())
	if c.DataSharingCost <= 0 {
		t.Fatalf("data sharing should cost something: %g", c.DataSharingCost)
	}
	if c.DataSharingCost >= 0.18 {
		t.Fatalf("1→2 data-sharing cost = %.1f%%, paper bound is <18%%", 100*c.DataSharingCost)
	}
}

func TestIncrementalCostWithinPaperBound(t *testing.T) {
	c := Claims(DefaultParams())
	if c.MaxIncrementalCost >= 0.005 {
		t.Fatalf("worst incremental cost = %.3f%%, paper bound is <0.5%%", 100*c.MaxIncrementalCost)
	}
	// Near-linear out to 32 systems.
	if c.Effective32 < 0.8 {
		t.Fatalf("32-system efficiency = %g, want near-linear (>0.8)", c.Effective32)
	}
}

func TestFigure3CurvesOrdering(t *testing.T) {
	p := DefaultParams()
	points := Figure3(8, p)
	if len(points) != 8 {
		t.Fatalf("points = %d", len(points))
	}
	crossover := -1
	for i, pt := range points {
		if pt.Ideal != float64(pt.CPUs) {
			t.Fatalf("ideal wrong at %d", pt.CPUs)
		}
		if pt.Sysplex > pt.Ideal+0.05 {
			t.Fatalf("sysplex above ideal at %d cpus: %g", pt.CPUs, pt.Sysplex)
		}
		if crossover == -1 && pt.Sysplex > pt.TCMP {
			crossover = i
		}
	}
	// The figure's shape: TCMP wins at small engine counts ("maximum
	// effective throughput at relatively small numbers of engines"),
	// then the sysplex overtakes and stays ahead.
	if crossover <= 0 {
		t.Fatalf("crossover at index %d; TCMP should win initially, sysplex later", crossover)
	}
	for i := crossover; i < len(points); i++ {
		if points[i].Sysplex <= points[i].TCMP {
			t.Fatalf("sysplex fell back below TCMP at %d cpus", points[i].CPUs)
		}
	}
	// Sysplex curve is increasing.
	for i := 1; i < len(points); i++ {
		if points[i].Sysplex <= points[i-1].Sysplex {
			t.Fatalf("sysplex curve not increasing at %d", points[i].CPUs)
		}
	}
}

func TestSkewShowsDataSharingAdvantage(t *testing.T) {
	p := DefaultParams()
	const m = 4
	// Capacity per system ≈ 1000/BaseServiceMS; offer 70% of aggregate,
	// with 60% of transactions hitting one partition.
	offered := 0.7 * float64(m) * 1000 / p.BaseServiceMS
	shared := Skew("sharing", m, 0.6, offered, p)
	part := Skew("partitioned", m, 0.6, offered, p)

	// Data sharing absorbs the skew: throughput ≈ offered.
	if shared.Throughput < 0.95*offered {
		t.Fatalf("sharing throughput = %g of %g offered", shared.Throughput, offered)
	}
	// The partitioned owner saturates: completions fall short of the
	// offered load and response times are far worse.
	if part.Throughput >= 0.95*offered {
		t.Fatalf("partitioned throughput = %g, expected saturation below offered %g", part.Throughput, offered)
	}
	if part.MeanRespMS < 4*shared.MeanRespMS {
		t.Fatalf("partitioned mean resp %.2fms vs shared %.2fms: expected blowup", part.MeanRespMS, shared.MeanRespMS)
	}
	// Utilization imbalance: partitioned hot node pegged, others idle.
	if part.UtilMax < 0.95 || part.UtilMin > 0.5 {
		t.Fatalf("partitioned utils = [%g, %g], expected imbalance", part.UtilMin, part.UtilMax)
	}
	if shared.UtilMax-shared.UtilMin > 0.15 {
		t.Fatalf("sharing utils = [%g, %g], expected balance", shared.UtilMin, shared.UtilMax)
	}
}

func TestUniformLoadParity(t *testing.T) {
	// Without skew and at moderate load, both designs deliver the
	// offered throughput — the paper's argument is about dynamics, not
	// steady uniform load.
	p := DefaultParams()
	const m = 4
	offered := 0.6 * float64(m) * 1000 / p.BaseServiceMS
	shared := Skew("sharing", m, 1.0/float64(m), offered, p)
	part := Skew("partitioned", m, 1.0/float64(m), offered, p)
	if part.Throughput < 0.95*offered || shared.Throughput < 0.95*offered {
		t.Fatalf("parity broken: shared=%g partitioned=%g offered=%g",
			shared.Throughput, part.Throughput, offered)
	}
}

func TestSysplexPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Sysplex(0, DefaultParams())
}

// TestPinnedToRecordedNumbers holds the model to the numbers recorded in
// EXPERIMENTS.md by the event-driven simulator it replaced: the FIG3
// SYSPLEX column and the EXP-DS ACHIEVED column.
func TestPinnedToRecordedNumbers(t *testing.T) {
	p := DefaultParams()
	fig3 := map[int]float64{
		1: 1.00, 2: 1.78, 4: 3.56, 5: 4.45, 8: 7.11, 12: 10.64,
		16: 14.15, 20: 17.64, 24: 21.12, 28: 24.58, 32: 28.02,
	}
	for _, pt := range Figure3(32, p) {
		want, ok := fig3[pt.CPUs]
		if ok && math.Abs(pt.Sysplex-want) > 0.02*want {
			t.Errorf("FIG3 at %d CPUs: sysplex %.3f, recorded %.2f (±2%%)", pt.CPUs, pt.Sysplex, want)
		}
	}
	achieved := []struct {
		mode string
		skew float64
		tps  float64
	}{
		{"sharing", 0.25, 1390}, {"partitioned", 0.25, 1383},
		{"sharing", 0.40, 1399}, {"partitioned", 0.40, 1318},
		{"sharing", 0.60, 1378}, {"partitioned", 0.60, 1042},
		{"sharing", 0.80, 1391}, {"partitioned", 0.80, 775},
	}
	offered := 0.7 * 4 * 1000 / p.BaseServiceMS
	for _, c := range achieved {
		r := Skew(c.mode, 4, c.skew, offered, p)
		if math.Abs(r.Throughput-c.tps) > 0.03*c.tps {
			t.Errorf("EXP-DS %s skew %.2f: %.0f tps, recorded %.0f (±3%%)", c.mode, c.skew, r.Throughput, c.tps)
		}
	}
}

func TestClosedFormCases(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	// One queue, no delay: every client is always queued there, so the
	// station is never idle and X = 1/D for any population.
	for _, n := range []float64{1, 4, 32} {
		if x, _ := mva(1, n, 2000, 1, 0, 1, 0); !near(x, 1.0/2000) {
			t.Errorf("mva single queue, N=%g: X = %g, want %g", n, x, 1.0/2000)
		}
	}
	// One server: the probability of waiting is the utilisation.
	for _, a := range []float64{0.1, 0.5, 0.9} {
		if got := erlangC(1, a); !near(got, a) {
			t.Errorf("erlangC(1, %g) = %g", a, got)
		}
	}
	// An unsaturated single partition is M/D/1: S + ρS/(2(1−ρ)).
	p := DefaultParams()
	s := p.BaseServiceMS
	for _, rho := range []float64{0.3, 0.7, 0.95} {
		r := Skew("partitioned", 1, 1, rho*1000/s, p)
		if want := s + rho*s/(2*(1-rho)); !near(r.MeanRespMS, want) {
			t.Errorf("single partition at ρ=%g: resp %.6fms, want %.6fms", rho, r.MeanRespMS, want)
		}
	}
	// A saturated partition completes at capacity with unbounded response.
	if r := Skew("partitioned", 1, 1, 2*1000/s, p); r.Throughput != 1000/s || !math.IsInf(r.MeanRespMS, 1) || r.UtilMax != 1 {
		t.Errorf("saturated partition = %+v", r)
	}
}
