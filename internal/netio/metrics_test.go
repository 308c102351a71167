package netio

import (
	"strings"
	"testing"
	"time"

	"extremenc/internal/obs"
)

// TestCounterViewConsistent pins the documented lifecycle of the ledger
// invariant: it holds trivially at rest, can legitimately break while
// offered blocks sit in queues, and must hold again once every block has
// been resolved to sent or shed.
func TestCounterViewConsistent(t *testing.T) {
	var c Counters
	if !c.View().Consistent() {
		t.Fatal("zero ledger must be consistent")
	}
	c.AddOffered(3)
	if v := c.View(); v.Consistent() {
		t.Fatalf("mid-flight view %+v cannot be consistent: 3 blocks unresolved", v)
	} else if v.BlocksOffered < v.BlocksSent+v.BlocksShed {
		t.Fatalf("mid-flight view %+v violates the weak invariant", v)
	}
	c.AddSent(2, 2*96)
	c.AddShed(1)
	if v := c.View(); !v.Consistent() {
		t.Fatalf("post-teardown view %+v must be consistent", v)
	}

	// Two settled ledgers merge into a settled one: counters add, the stall
	// high-water mark is the larger of the two.
	var d Counters
	d.AddEncoded(4)
	d.AddOffered(4)
	d.AddShed(4)
	c.AddEncodeStall(3 * time.Millisecond)
	d.AddEncodeStall(5 * time.Millisecond)
	d.AddEncodeStall(time.Millisecond)
	got := c.View().Add(d.View())
	want := CounterView{BlocksEncoded: 4, BlocksOffered: 7, BlocksSent: 2, BlocksShed: 5, BytesSent: 192,
		EncodeStall: 9 * time.Millisecond, MaxEncodeStall: 5 * time.Millisecond}
	if got != want || !got.Consistent() {
		t.Fatalf("merged ledger %+v, want %+v", got, want)
	}
}

// TestCountersRegister checks that registration is exposition-only: the
// counters keep working through the same storage, duplicate names are
// rejected, and the registered values appear in the text exposition.
func TestCountersRegister(t *testing.T) {
	reg := obs.NewRegistry()
	var c Counters
	c.AddEncoded(5) // pre-registration traffic must survive registration
	if err := c.Register(reg, "netio"); err != nil {
		t.Fatal(err)
	}
	var other Counters
	if err := other.Register(reg, "netio"); err == nil {
		t.Fatal("second Counters registered under the same prefix")
	}
	c.AddSent(4, 400)
	if got, ok := reg.CounterValue("netio.blocks_sent"); !ok || got != 4 {
		t.Fatalf("netio.blocks_sent = %d (ok=%v), want 4", got, ok)
	}
	if got, ok := reg.CounterValue("netio.blocks_encoded"); !ok || got != 5 {
		t.Fatalf("netio.blocks_encoded = %d (ok=%v), want 5", got, ok)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "netio_bytes_sent 400") {
		t.Fatalf("exposition missing netio_bytes_sent:\n%s", sb.String())
	}
}
