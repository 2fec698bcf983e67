package device_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func TestTable1Verbatim(t *testing.T) {
	// The paper's Table 1: capacities of vNFs on the SmartNIC and CPU.
	cat := device.Table1()
	cases := []struct {
		nf       string
		nic, cpu device.Gbps
	}{
		{device.TypeFirewall, 10, 4},
		{device.TypeLogger, 2, 4},
		{device.TypeMonitor, 3.2, 10},
		{device.TypeLoadBalancer, device.Unbounded, 4},
	}
	for _, tc := range cases {
		c, ok := cat[tc.nf]
		if !ok {
			t.Fatalf("missing %q", tc.nf)
		}
		if c.SmartNIC != tc.nic {
			t.Errorf("%s θS = %v, want %v", tc.nf, c.SmartNIC, tc.nic)
		}
		if c.CPU != tc.cpu {
			t.Errorf("%s θC = %v, want %v", tc.nf, c.CPU, tc.cpu)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	cat := device.Table1()
	if _, err := cat.Lookup("nonesuch", device.KindCPU); err == nil {
		t.Error("want error for unknown type")
	}
	cat["zeronf"] = device.Capacity{}
	if _, err := cat.Lookup("zeronf", device.KindSmartNIC); err == nil {
		t.Error("want error for zero capacity")
	}
}

func TestUtilizationLinearity(t *testing.T) {
	cat := device.Table1()
	nic := device.Device{Kind: device.KindSmartNIC}
	res := []string{device.TypeLogger, device.TypeMonitor, device.TypeFirewall}
	u1, err := nic.Utilization(cat, res, 1)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := nic.Utilization(cat, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u2-2*u1) > 1e-12 {
		t.Errorf("utilization not linear: u(1)=%v u(2)=%v", u1, u2)
	}
	// 1/2 + 1/3.2 + 1/10 = 0.9125 at 1 Gbps.
	if math.Abs(u1-0.9125) > 1e-12 {
		t.Errorf("u(1) = %v, want 0.9125", u1)
	}
}

func TestDMAUtilizationAndSaturation(t *testing.T) {
	nic := device.Device{Kind: device.KindSmartNIC, DMAEngineGbps: 40}
	// 4 crossings at 2 Gbps over a 40 Gbps DMA budget: 4*2/40 = 0.2.
	if u := nic.DMAUtilization(2, 4); math.Abs(u-0.2) > 1e-12 {
		t.Errorf("DMA util = %v, want 0.2", u)
	}
	if sat := nic.DMASaturation(4); sat != 10 {
		t.Errorf("DMA saturation = %v, want 10", sat)
	}
	// Unmodelled device: zero utilization, infinite saturation.
	cpu := device.Device{Kind: device.KindCPU}
	if u := cpu.DMAUtilization(2, 4); u != 0 {
		t.Errorf("CPU DMA util = %v, want 0", u)
	}
	if sat := cpu.DMASaturation(4); !math.IsInf(float64(sat), 1) {
		t.Errorf("CPU DMA saturation = %v, want +Inf", sat)
	}
	if sat := nic.DMASaturation(0); !math.IsInf(float64(sat), 1) {
		t.Errorf("0-crossing DMA saturation = %v, want +Inf", sat)
	}
}

func TestSaturationInverseOfUtilization(t *testing.T) {
	cat := device.Table1()
	nic := device.Device{Kind: device.KindSmartNIC}
	res := []string{device.TypeLogger, device.TypeMonitor, device.TypeFirewall}
	sat, err := nic.Saturation(cat, res)
	if err != nil {
		t.Fatal(err)
	}
	u, err := nic.Utilization(cat, res, sat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-1) > 1e-9 {
		t.Errorf("util at saturation = %v, want 1", u)
	}
}

func TestSaturationEmptyDeviceIsInfinite(t *testing.T) {
	nic := device.Device{Kind: device.KindSmartNIC}
	sat, err := nic.Saturation(device.Table1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(sat), 1) {
		t.Errorf("saturation = %v, want +Inf", sat)
	}
}

func TestKindString(t *testing.T) {
	if device.KindSmartNIC.String() != "SmartNIC" ||
		device.KindCPU.String() != "CPU" ||
		device.KindFPGA.String() != "FPGA" {
		t.Error("kind names wrong")
	}
}

func TestCatalogClone(t *testing.T) {
	cat := device.Table1()
	cp := cat.Clone()
	cp[device.TypeLogger] = device.Capacity{SmartNIC: 99}
	if cat[device.TypeLogger].SmartNIC == 99 {
		t.Error("Clone shares storage with original")
	}
}

// Property: utilization is additive over residents and monotone in
// throughput; saturation inverts it.
func TestPropertyUtilizationAdditive(t *testing.T) {
	cat := device.ExtendedCatalog()
	types := []string{
		device.TypeFirewall, device.TypeLogger, device.TypeMonitor,
		device.TypeNAT, device.TypeDPI, device.TypeRateLimiter, device.TypeIDS,
	}
	nic := device.Device{Kind: device.KindSmartNIC}
	f := func(aIdx, bIdx uint8, tp uint16) bool {
		a := types[int(aIdx)%len(types)]
		b := types[int(bIdx)%len(types)]
		cur := device.Gbps(float64(tp%5000)/1000 + 0.001)
		ua, err1 := nic.Utilization(cat, []string{a}, cur)
		ub, err2 := nic.Utilization(cat, []string{b}, cur)
		uab, err3 := nic.Utilization(cat, []string{a, b}, cur)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(uab-(ua+ub)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
