package waferscale

import (
	"math"
	"testing"
)

func TestNPUBudget(t *testing.T) {
	if got := NPUPowerW(); got != 700 {
		t.Fatalf("NPU power = %g W, want 700 (Section 6.2.2)", got)
	}
	if got := NPUAreaMM2(); got != 1314 {
		t.Fatalf("NPU area = %g mm², want 1314", got)
	}
	if got := int(PowerBudgetW / NPUPowerW()); got != 21 {
		t.Fatalf("15 kW admits %d NPUs, want ≈ 21", got)
	}
}

func TestBaselineComputeArea(t *testing.T) {
	// 20×1314 + 18×20 = 26,640 mm² (Section 6.2.2).
	if got := BaselineComputeAreaMM2(); got != 26640 {
		t.Fatalf("compute+I/O area = %g mm², want 26640", got)
	}
}

func TestTable4Totals(t *testing.T) {
	o := Table4()
	if got := o.TotalAreaMM2(); got != 25195 {
		t.Fatalf("FRED area = %g mm², want 25195 (Table 4)", got)
	}
	if got := o.TotalPowerW(); math.Abs(got-179.35) > 1e-9 {
		t.Fatalf("FRED power = %g W, want 179.35 (Table 4)", got)
	}
	frac := o.PowerFraction()
	if frac < 0.0115 || frac > 0.0125 {
		t.Fatalf("FRED power fraction = %g, want ≈ 1.2%%", frac)
	}
}

func TestFredFitsWafer(t *testing.T) {
	o := Table4()
	if !o.FitsWafer() {
		t.Fatalf("FRED + compute (%g mm²) exceeds the wafer (%g mm²)",
			BaselineComputeAreaMM2()+o.TotalAreaMM2(), float64(WaferAreaMM2))
	}
}

func TestAreaWithIODensity(t *testing.T) {
	o := Table4()
	// 250 GB/s/mm → 42.96% of area... the paper quotes 18.4% for the
	// switch chip I/O share; our linear model scales the whole chiplet,
	// so assert the ratio of the scaling itself.
	scaled := o.AreaWithIODensity(250)
	want := o.TotalAreaMM2() * 107.4 / 250
	if math.Abs(scaled-want) > 1e-6 {
		t.Fatalf("area at 250 GB/s/mm = %g, want %g", scaled, want)
	}
	ucie := o.AreaWithIODensity(1000)
	if ucie >= scaled {
		t.Fatal("denser I/O must shrink the switch")
	}
	if o.AreaWithIODensity(50) != o.TotalAreaMM2() {
		t.Fatal("sparser I/O must not shrink the switch")
	}
}

func TestAreaWithIODensityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero density did not panic")
		}
	}()
	Table4().AreaWithIODensity(0)
}

func TestTable5Shape(t *testing.T) {
	cfgs := Table5()
	if len(cfgs) != 5 {
		t.Fatalf("Table 5 has %d configs", len(cfgs))
	}
	if cfgs[0].Name != "Baseline" || cfgs[4].Name != "Fred-D" {
		t.Fatalf("unexpected config order: %v", cfgs)
	}
	if !cfgs[2].InNetwork || !cfgs[4].InNetwork || cfgs[1].InNetwork || cfgs[3].InNetwork {
		t.Fatal("in-network flags wrong")
	}
	if cfgs[3].BisectionBW != 30e12 || cfgs[1].BisectionBW != 3.75e12 {
		t.Fatal("bisection bandwidths wrong")
	}
}
