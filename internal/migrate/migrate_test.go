package migrate_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/migrate"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/pcie"
)

func TestMoveTransfersState(t *testing.T) {
	src := nf.NewMonitor("mon", 0, 0)
	// Put some state into the source.
	d := packet.NewDecoder()
	b := packet.NewBuilder()
	fr := b.BuildUDP4(packet.Ethernet{Type: packet.EtherTypeIPv4},
		packet.IPv4{Version: 4, TTL: 64, Src: packet.IPv4Addr{1, 1, 1, 1}, Dst: packet.IPv4Addr{2, 2, 2, 2}},
		packet.UDP{SrcPort: 1, DstPort: 2}, nil)
	d.Decode(fr)
	k, _ := flow.FromDecoder(d)
	ctx := &nf.Ctx{Frame: fr, Decoder: d, FlowKey: k, HasFlow: true}
	src.Process(ctx)

	dst := nf.NewMonitor("mon", 0, 0)
	rep, err := migrate.Move(src, dst, migrate.PCIeTransport{Link: pcie.DefaultLink(), Setup: time.Millisecond})
	if err != nil {
		t.Fatalf("Move: %v", err)
	}
	if rep.StateBytes == 0 {
		t.Error("no state transferred")
	}
	if rep.Transfer < time.Millisecond {
		t.Errorf("transfer = %v, want ≥ setup", rep.Transfer)
	}
	if dst.FlowCount() != 1 {
		t.Errorf("destination flows = %d", dst.FlowCount())
	}
}

func TestMoveTypeMismatch(t *testing.T) {
	a := nf.NewMonitor("x", 0, 0)
	c := nf.NewLogger("x", 8)
	if _, err := migrate.Move(a, c, migrate.PCIeTransport{}); !errors.Is(err, migrate.ErrTypeMismatch) {
		t.Fatalf("err = %v, want ErrTypeMismatch", err)
	}
}

func TestPCIeTransportCost(t *testing.T) {
	tr := migrate.PCIeTransport{
		Link:  pcie.Link{PropDelay: 40 * time.Microsecond, BandwidthGbps: 64},
		Setup: time.Millisecond,
	}
	small := tr.TransferTime(64)
	big := tr.TransferTime(10 << 20)
	if small >= big {
		t.Errorf("transfer not monotone: %v vs %v", small, big)
	}
	if small < time.Millisecond {
		t.Errorf("transfer %v below setup cost", small)
	}
}

// End-to-end: every catalog NF type migrates loss-free with state intact.
func TestMoveAllTypes(t *testing.T) {
	types := []string{
		device.TypeFirewall, device.TypeLogger, device.TypeMonitor,
		device.TypeLoadBalancer, device.TypeNAT, device.TypeDPI,
		device.TypeRateLimiter, device.TypeIDS,
	}
	tr := migrate.PCIeTransport{Link: pcie.DefaultLink()}
	for _, typ := range types {
		src, err := nf.New("a", typ)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := nf.New("a", typ)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := migrate.Move(src, dst, tr)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if rep.Stateless {
			t.Errorf("%s reported stateless; all catalog NFs carry state", typ)
		}
	}
}
