package store

import (
	"fmt"
	"io"

	"repro/internal/faultinject"
)

// This file is the store's chaos seam: with an injector attached
// (opmbench -faults, the chaos suite), Put routes its journal append
// through the injector's "store" point. Without one — the production
// path — the only cost is a nil check inside faultinject.StoreWrite.
//
// Two failure modes are modelled, matching the two damage classes the
// open-time scan repairs:
//
//   - torn: a crash mid-append. The frame is written short, exactly the
//     state a killed process leaves, and then repaired the way reopen
//     would repair it — truncate the torn tail, append the full frame.
//     The commit still lands; the counters record that damage happened
//     and was healed (store/torn_writes, store/write_repairs).
//
//   - corrupt: silent media damage. A payload bit flips after the CRC
//     is computed, so the running session is unaffected (the in-memory
//     index holds the good entry) but replay on the next open fails the
//     record's checksum, skips it, and the cell recomputes — the
//     degraded-but-correct path (store/corrupt_writes at damage time,
//     store/corrupt_records at detection time).

// SetInjector attaches (or, with nil, detaches) the chaos injector
// consulted on every journal append. Safe on a nil store.
func (s *Store) SetInjector(in *faultinject.Injector) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = in
}

// appendFrame journals one frame (encodeFrame's bytes), routing through
// the chaos injector. Caller holds mu.
func (s *Store) appendFrame(digest string, buf []byte) error {
	switch s.inj.StoreWrite(digest) {
	case faultinject.KindTorn:
		off, err := s.f.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		// Crash mid-append: only a prefix of the frame reaches the file.
		if _, err := s.f.Write(buf[:frameHeaderLen+(len(buf)-frameHeaderLen)/2]); err != nil {
			return err
		}
		s.stats.TornWrites++
		s.mTorn.Inc()
		// Repair exactly as reopen would: cut the torn tail, re-append.
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("repairing torn write: %w", err)
		}
		if _, err := s.f.Seek(off, io.SeekStart); err != nil {
			return err
		}
		s.stats.WriteRepairs++
		s.mRepairs.Inc()
	case faultinject.KindCorrupt:
		buf = append([]byte(nil), buf...)
		// Flip one payload bit after the CRC was computed: invisible
		// now, caught by the checksum on the next replay.
		buf[frameHeaderLen] ^= 0x80
		s.stats.CorruptWrites++
		s.mCorruptW.Inc()
	}
	_, err := s.f.Write(buf)
	return err
}
