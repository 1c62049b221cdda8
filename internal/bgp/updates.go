package bgp

import (
	"fmt"
	"io"
	"os"

	"ipleasing/internal/mrt"
	"ipleasing/internal/netutil"
)

// Withdraw removes every origin's announcement of p, reporting whether
// the prefix was in the table. Like AddRoute it drops the frozen state,
// so the table-wide caches (RoutedAddressSpace) are recomputed until
// the next Freeze.
func (t *Table) Withdraw(p netutil.Prefix) bool {
	p = p.Canonicalize()
	if _, ok := t.tree.Get(p); !ok {
		return false
	}
	t.frozen = false
	return t.tree.Delete(p)
}

// ApplyUpdate mutates the table with one BGP UPDATE message: withdrawn
// prefixes leave the table; NLRI prefixes gain the update's origin(s).
// Updates without an AS_PATH announce nothing (pure withdrawals).
func (t *Table) ApplyUpdate(u *mrt.BGPUpdate) error {
	for _, p := range u.Withdrawn {
		t.Withdraw(p)
	}
	if len(u.NLRI) == 0 {
		return nil
	}
	path, err := mrt.PathOf(u.Attrs)
	if err != nil {
		return err
	}
	origins := path.Origins()
	if len(origins) == 0 {
		return fmt.Errorf("bgp: update announces %d prefixes without an AS_PATH origin", len(u.NLRI))
	}
	for _, p := range u.NLRI {
		// Replace semantics: a fresh announcement supersedes previous
		// origins for the prefix (single-view table).
		t.Withdraw(p)
		for _, o := range origins {
			t.AddRoute(p, o)
		}
	}
	return nil
}

// UpdateEvent is one timestamped UPDATE from an MRT stream.
type UpdateEvent struct {
	Timestamp uint32
	Update    *mrt.BGPUpdate
}

// ReadUpdates decodes every BGP4MP UPDATE in an MRT stream, in order.
// Non-UPDATE BGP messages (opens, keepalives) and foreign record types
// are skipped.
func ReadUpdates(r io.Reader) ([]UpdateEvent, error) {
	rd := mrt.NewReader(r)
	var out []UpdateEvent
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if rec.Type != mrt.TypeBGP4MP || rec.Subtype != mrt.SubtypeBGP4MPMessageAS4 {
			continue
		}
		msg, err := mrt.DecodeBGP4MPMessageAS4(rec.Body)
		if err != nil {
			return nil, fmt.Errorf("bgp: %w", err)
		}
		if msg.MsgType != mrt.BGPMsgUpdate {
			continue
		}
		u, err := mrt.DecodeBGPUpdate(msg.MsgBody)
		if err != nil {
			return nil, fmt.Errorf("bgp: update at t=%d: %w", rec.Timestamp, err)
		}
		out = append(out, UpdateEvent{Timestamp: rec.Timestamp, Update: u})
	}
}

// ReadUpdatesFile reads an update stream from path.
func ReadUpdatesFile(path string) ([]UpdateEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadUpdates(f)
}

// WriteUpdates renders update events as a BGP4MP_MESSAGE_AS4 MRT stream.
// peer supplies the vantage-point addressing.
func WriteUpdates(w io.Writer, peer mrt.Peer, events []UpdateEvent) error {
	ww := mrt.NewWriter(w)
	for _, ev := range events {
		msg := &mrt.BGP4MPMessage{
			PeerAS:  peer.AS,
			LocalAS: peer.AS,
			PeerIP:  peer.Addr,
			LocalIP: peer.Addr,
			MsgType: mrt.BGPMsgUpdate,
			MsgBody: ev.Update.Encode(),
		}
		if err := ww.WriteRecord(msg.Record(ev.Timestamp)); err != nil {
			return err
		}
	}
	return ww.Flush()
}

// WriteUpdatesFile writes an update stream to path.
func WriteUpdatesFile(path string, peer mrt.Peer, events []UpdateEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := WriteUpdates(f, peer, events)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
