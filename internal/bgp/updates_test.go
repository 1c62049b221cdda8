package bgp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ipleasing/internal/mrt"
	"ipleasing/internal/netutil"
)

func TestWithdraw(t *testing.T) {
	var tbl Table
	tbl.AddRoute(mp("192.0.2.0/24"), 5)
	if !tbl.Withdraw(mp("192.0.2.0/24")) || tbl.HasPrefix(mp("192.0.2.0/24")) {
		t.Fatal("withdraw failed")
	}
	if tbl.Withdraw(mp("192.0.2.0/24")) {
		t.Fatal("double withdraw succeeded")
	}
}

// TestWithdrawOnFrozenTable: a withdrawal after Freeze must not leave
// the frozen table-wide cache answering for the old route set.
func TestWithdrawOnFrozenTable(t *testing.T) {
	var tbl Table
	tbl.AddRoute(mp("10.0.0.0/8"), 1)
	tbl.AddRoute(mp("192.0.2.0/24"), 2)
	tbl.Freeze()
	if got := tbl.RoutedAddressSpace(); got != 1<<24+256 {
		t.Fatalf("frozen routed space = %d, want %d", got, 1<<24+256)
	}
	if !tbl.Withdraw(mp("10.0.0.0/8")) {
		t.Fatal("withdraw of an announced prefix failed")
	}
	if got := tbl.RoutedAddressSpace(); got != 256 {
		t.Errorf("routed space after withdraw = %d, want 256", got)
	}
	if got := tbl.Origins(mp("10.0.0.0/8")); got != nil {
		t.Errorf("withdrawn prefix still has origins %v", got)
	}
	if got := tbl.Origins(mp("192.0.2.0/24")); len(got) != 1 || got[0] != 2 {
		t.Errorf("surviving prefix origins = %v, want [2]", got)
	}
	tbl.Freeze()
	if got := tbl.RoutedAddressSpace(); got != 256 {
		t.Errorf("routed space after re-freeze = %d, want 256", got)
	}
}

func TestApplyUpdate(t *testing.T) {
	var tbl Table
	tbl.AddRoute(mp("203.0.113.0/24"), 64500)

	// Announcement replaces the previous origin.
	err := tbl.ApplyUpdate(&mrt.BGPUpdate{
		Attrs: []mrt.Attribute{mrt.ASPathAttr(mrt.NewASPathSequence(65001, 64999))},
		NLRI:  []netutil.Prefix{mp("203.0.113.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Origins(mp("203.0.113.0/24")); len(got) != 1 || got[0] != 64999 {
		t.Fatalf("origins after re-announce = %v", got)
	}

	// Withdrawal empties it.
	if err := tbl.ApplyUpdate(&mrt.BGPUpdate{Withdrawn: []netutil.Prefix{mp("203.0.113.0/24")}}); err != nil {
		t.Fatal(err)
	}
	if tbl.HasPrefix(mp("203.0.113.0/24")) {
		t.Fatal("withdrawal ignored")
	}

	// Announcement without an AS_PATH is an error.
	err = tbl.ApplyUpdate(&mrt.BGPUpdate{NLRI: []netutil.Prefix{mp("10.0.0.0/8")}})
	if err == nil {
		t.Fatal("pathless announcement accepted")
	}
}

func sampleEvents() []UpdateEvent {
	return []UpdateEvent{
		{Timestamp: 100, Update: &mrt.BGPUpdate{
			Attrs: []mrt.Attribute{mrt.ASPathAttr(mrt.NewASPathSequence(65001, 834))},
			NLRI:  []netutil.Prefix{mp("203.0.113.0/24")},
		}},
		{Timestamp: 200, Update: &mrt.BGPUpdate{
			Withdrawn: []netutil.Prefix{mp("203.0.113.0/24")},
		}},
		{Timestamp: 300, Update: &mrt.BGPUpdate{
			Attrs: []mrt.Attribute{mrt.ASPathAttr(mrt.NewASPathSequence(65001, 8100))},
			NLRI:  []netutil.Prefix{mp("203.0.113.0/24")},
		}},
	}
}

func TestUpdateStreamRoundTrip(t *testing.T) {
	peer := mrt.Peer{BGPID: 1, Addr: netutil.MustParseAddr("192.0.2.1"), AS: 65001}
	var buf bytes.Buffer
	if err := WriteUpdates(&buf, peer, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadUpdates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("events = %d", len(back))
	}
	if back[0].Timestamp != 100 || back[1].Timestamp != 200 {
		t.Fatal("timestamps lost")
	}

	// Replay: the prefix ends up announced by the third event's origin.
	var tbl Table
	for _, ev := range back {
		if err := tbl.ApplyUpdate(ev.Update); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.Origins(mp("203.0.113.0/24")); len(got) != 1 || got[0] != 8100 {
		t.Fatalf("replayed origins = %v", got)
	}
}

func TestUpdateStreamFileAndSkips(t *testing.T) {
	peer := mrt.Peer{AS: 65001, Addr: netutil.MustParseAddr("192.0.2.1")}
	path := filepath.Join(t.TempDir(), "updates.mrt")

	// Interleave a keepalive and a RIB record the reader must skip.
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	ka := &mrt.BGP4MPMessage{PeerAS: 65001, MsgType: mrt.BGPMsgKeepalive}
	if err := w.WriteRecord(ka.Record(50)); err != nil {
		t.Fatal(err)
	}
	rib := &mrt.RIB{Prefix: mp("10.0.0.0/8"), Entries: []mrt.RIBEntry{{
		Attrs: []mrt.Attribute{mrt.ASPathAttr(mrt.NewASPathSequence(1))},
	}}}
	if err := w.WriteRecord(rib.Record(60)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := WriteUpdates(&buf, peer, sampleEvents()[:1]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadUpdatesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Timestamp != 100 {
		t.Fatalf("events = %+v", events)
	}
	if _, err := ReadUpdatesFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}
