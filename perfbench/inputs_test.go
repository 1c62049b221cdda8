package main

import (
	"testing"

	"ipleasing"
	"ipleasing/internal/netutil"
)

func TestTruthIndexCoverIsMostSpecific(t *testing.T) {
	recs := []ipleasing.TruthRecord{
		{Prefix: netutil.MustParsePrefix("10.0.0.0/16"), Intended: ipleasing.AggregatedCustomer},
		{Prefix: netutil.MustParsePrefix("10.0.1.0/24"), Intended: ipleasing.LeasedWithRootOrigin},
		{Prefix: netutil.MustParsePrefix("10.0.2.0/24"), Intended: ipleasing.Unused, Legacy: true},
	}
	truth := newTruthIndex(recs)
	for _, tc := range []struct {
		ip   string
		want string
	}{
		{"10.0.1.77", "10.0.1.0/24"},
		{"10.0.9.1", "10.0.0.0/16"},
		{"10.0.2.5", "10.0.0.0/16"}, // legacy blocks are not classified
		{"11.0.0.1", ""},
	} {
		rec, ok := truth.cover(netutil.MustParseAddr(tc.ip))
		got := ""
		if ok {
			got = rec.Prefix.String()
		}
		if got != tc.want {
			t.Errorf("cover(%s) = %q, want %q", tc.ip, got, tc.want)
		}
	}
}

func TestWantViewsLastDuplicateWins(t *testing.T) {
	p := netutil.MustParsePrefix("192.0.2.0/24")
	all := []ipleasing.Inference{
		{Prefix: p, Category: ipleasing.Unused, Registry: ipleasing.RIPE},
		{Prefix: p, Category: ipleasing.LeasedNoRootOrigin, Registry: ipleasing.ARIN},
	}
	got := wantViews(all, []netutil.Addr{netutil.MustParseAddr("192.0.2.9"), netutil.MustParseAddr("198.51.100.1")})
	if got[0] == nil || got[0].Category != ipleasing.LeasedNoRootOrigin.String() {
		t.Errorf("duplicate prefix resolved to %+v", got[0])
	}
	if got[1] != nil {
		t.Errorf("uncovered address answered %+v", got[1])
	}
}
