// Package waferscale encodes the physical system parameters of
// Section 6.2 of the FRED paper (Tables 3, 4 and 5): the 300 mm wafer,
// the 15 kW power budget, H100-class NPU chiplets with five HBM3
// stacks, CXL-3 I/O controllers, Si-IF wafer interconnect, and the
// area/power overhead accounting of the FRED switch chiplets.
package waferscale

import "fmt"

// Physical constants of the evaluated wafer-scale system (Table 3 and
// Section 6.2).
const (
	// WaferAreaMM2 is the usable area of a 300 mm wafer.
	WaferAreaMM2 = 70000.0
	// PowerBudgetW is the wafer's thermal/power-delivery budget.
	PowerBudgetW = 15000.0

	// NPUComputeAreaMM2 and NPUComputePowerW describe the GPU-like
	// compute chiplet (FP16: 1000 TFLOPS).
	NPUComputeAreaMM2 = 814.0
	NPUComputePowerW  = 525.0
	NPUPeakFP16TFLOPs = 1000.0
	HBMStacksPerNPU   = 5
	HBMStackAreaMM2   = 100.0
	HBMStackPowerW    = 35.0
	HBMCapacityBytes  = 80e9 // total per NPU
	HBMBandwidthBps   = 3e12 // total per NPU

	// IOControllerCount etc. describe the CXL-3 controllers.
	IOControllerCount   = 18
	IOControllerAreaMM2 = 20.0
	IOControllerBWBps   = 128e9

	// NPUCount is the number of NPUs the 15 kW budget admits
	// (15 kW / 700 W ≈ 21, minus headroom for fabric and I/O).
	NPUCount = 20
)

// NPUAreaMM2 returns the full NPU footprint: compute + 5 HBM stacks.
func NPUAreaMM2() float64 { return NPUComputeAreaMM2 + HBMStacksPerNPU*HBMStackAreaMM2 }

// NPUPowerW returns the full NPU power: compute + 5 HBM stacks
// (700 W, H100-analogous).
func NPUPowerW() float64 { return NPUComputePowerW + HBMStacksPerNPU*HBMStackPowerW }

// BaselineComputeAreaMM2 returns the NPU + I/O controller area of the
// baseline system (26,640 mm², Section 6.2.2).
func BaselineComputeAreaMM2() float64 {
	return NPUCount*NPUAreaMM2() + IOControllerCount*IOControllerAreaMM2
}

// SwitchChiplet is one row of Table 4.
type SwitchChiplet struct {
	Name    string
	Count   int
	AreaMM2 float64
	PowerW  float64
}

// FredOverhead is the Table 4 bill of materials for the FRED fabric of
// Figure 8(b).
type FredOverhead struct {
	Chiplets     []SwitchChiplet
	WiringPowerW float64
}

// Table4 returns the paper's FRED implementation overhead.
func Table4() FredOverhead {
	return FredOverhead{
		Chiplets: []SwitchChiplet{
			{Name: "Fred3(12) L1 switch", Count: 15, AreaMM2: 685, PowerW: 3.75},
			{Name: "Fred3(11) L1 switch", Count: 10, AreaMM2: 678, PowerW: 3.40},
			{Name: "Fred3(10) L2 switch", Count: 10, AreaMM2: 814, PowerW: 3.11},
		},
		WiringPowerW: 58,
	}
}

// TotalAreaMM2 sums the switch chiplet areas (25,195 mm² in Table 4).
func (o FredOverhead) TotalAreaMM2() float64 {
	total := 0.0
	for _, c := range o.Chiplets {
		total += float64(c.Count) * c.AreaMM2
	}
	return total
}

// TotalPowerW sums switch and wiring power (179.35 W in Table 4).
func (o FredOverhead) TotalPowerW() float64 {
	total := o.WiringPowerW
	for _, c := range o.Chiplets {
		total += float64(c.Count) * c.PowerW
	}
	return total
}

// PowerFraction returns the fabric power as a fraction of the wafer
// budget (≈1.2%, Section 6.2.3).
func (o FredOverhead) PowerFraction() float64 { return o.TotalPowerW() / PowerBudgetW }

// FitsWafer reports whether compute, I/O and fabric fit the wafer area.
func (o FredOverhead) FitsWafer() bool {
	return BaselineComputeAreaMM2()+o.TotalAreaMM2() <= WaferAreaMM2
}

// AreaWithIODensity scales the switch area for a different I/O edge
// density. The paper's switches are I/O-limited at 107.4 GB/s/mm
// (2 metal layers × 53.7); next-generation wafer I/O reaches
// 250 GB/s/mm (18.4% of the area) and UCIe-Advanced class serial links
// 1 TB/s/mm (5%), Section 6.2.3's discussion.
func (o FredOverhead) AreaWithIODensity(gbpsPerMM float64) float64 {
	const baseline = 107.4
	if gbpsPerMM <= 0 {
		panic(fmt.Sprintf("waferscale: non-positive I/O density %g", gbpsPerMM))
	}
	scale := baseline / gbpsPerMM
	if scale > 1 {
		scale = 1
	}
	return o.TotalAreaMM2() * scale
}

// ConfigSummary describes one Table 5 configuration for reports.
type ConfigSummary struct {
	Name        string
	Description string
	BisectionBW float64
	InNetwork   bool
}

// Table5 returns the five evaluated configurations.
func Table5() []ConfigSummary {
	return []ConfigSummary{
		{Name: "Baseline", Description: "5x4 2D mesh, 18 edge I/O controllers", BisectionBW: 3.75e12},
		{Name: "Fred-A", Description: "FRED fabric, mesh-equivalent bisection, endpoint collectives", BisectionBW: 3.75e12},
		{Name: "Fred-B", Description: "Fred-A + in-network collectives", BisectionBW: 3.75e12, InNetwork: true},
		{Name: "Fred-C", Description: "FRED fabric, 30 TB/s bisection, endpoint collectives", BisectionBW: 30e12},
		{Name: "Fred-D", Description: "Fred-C + in-network collectives", BisectionBW: 30e12, InNetwork: true},
	}
}
