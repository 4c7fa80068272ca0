// Package store is the persistent, content-addressed experiment
// result store behind checkpointed sweeps and crash-safe resume. A
// result is keyed by a deterministic digest of (model version,
// platform+mode configuration hash, sweep family, job key) and
// persisted the moment its job finishes, through an append-only
// journal of length-prefixed, checksummed JSON records. Opening a
// store replays the journal: a torn final record (crash mid-append) is
// truncated away, an interior record with a damaged checksum or an
// unknown schema version is skipped, and everything else becomes the
// in-memory index. The journal is the store's only file and its single
// source of truth; Compact rewrites it atomically without dead records.
//
// The store never feeds anything that is not byte-identical to what a
// cold run would compute: cached payloads are the exact JSON of the
// original result, and Go's float64 JSON round trip is exact, so a
// warm sweep renders the same report bytes as a cold one (the
// warm==cold equivalence contract; see DESIGN.md).
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// Store is a content-addressed result store backed by one journal
// file in a directory. All methods are safe for concurrent use. Two
// locks split the work: the journal lock serializes writes to the
// journal (Put's append, Compact's rewrite, Close), and the index lock
// guards the in-memory index and tally, so Get, GetRaw, Len and Stats
// never wait on a write(2). A method that takes both takes the journal
// lock first. Get and Put on a nil *Store report a miss and drop the
// commit, so callers without a store never nil-check.
type Store struct {
	// jmu is the journal lock: it guards f, and a Put holds it from its
	// append through its index update.
	jmu sync.Mutex
	f   *os.File // journal, positioned at its end
	// mu is the index lock: it guards index, order and stats, and
	// outside Compact and Close it is held only around them, never
	// across I/O.
	mu    sync.Mutex
	dir   string
	index map[string]entry
	order []string // digests in first-commit order (compaction order)
	stats Stats

	reg *obs.Registry
	// Instruments resolve once at open; all nil (no-op) without a
	// registry.
	mHits, mMisses, mCommits, mCommitErrs *obs.Counter
	mCorrupt, mStale, mSuperseded         *obs.Counter
}

// Stats is the running damage-and-usage tally of one store session.
type Stats struct {
	// Live is the number of distinct digests currently resolvable.
	Live int
	// Hits, Misses and Commits count Get/Put outcomes this session.
	Hits, Misses, Commits int
	// Corrupt and Stale count journal records dropped on open
	// (checksum/JSON damage or a missing digest or data member, and
	// schema-version mismatch respectively); Superseded counts records
	// shadowed by a later commit to the same digest.
	Corrupt, Stale, Superseded int
	// TruncatedBytes is how much torn tail the open-time scan cut.
	TruncatedBytes int64
}

// Open opens (creating if needed) the store in dir and replays its
// journal. Damage never fails the open: torn tails are truncated,
// unreadable or version-mismatched records are skipped and counted in
// Stats (and, with a registry, on store/corrupt_records and
// store/stale_records). reg may be nil; it receives the store's cache
// counters and an aggregate store/open span.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	sp := reg.StartSpan("store/open")
	defer sp.End()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:         dir,
		f:           f,
		index:       map[string]entry{},
		reg:         reg,
		mHits:       reg.Counter("store/hits"),
		mMisses:     reg.Counter("store/misses"),
		mCommits:    reg.Counter("store/commits"),
		mCommitErrs: reg.Counter("store/commit_errors"),
		mCorrupt:    reg.Counter("store/corrupt_records"),
		mStale:      reg.Counter("store/stale_records"),
		mSuperseded: reg.Counter("store/superseded_records"),
	}
	if err := s.replay(); err != nil {
		f.Close() //opmlint:allow errdiscard — best-effort close on a failed open; the replay error is returned
		return nil, err
	}
	return s, nil
}

// replay loads the journal into the index, repairing as it goes.
func (s *Store) replay() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		if _, err := s.f.Write([]byte(journalMagic)); err != nil {
			return fmt.Errorf("store: writing journal header: %w", err)
		}
		return nil
	}
	magic := make([]byte, len(journalMagic))
	//opmlint:allow errdiscard — a short read and a read error mean the same thing here: no trustable magic, handled by the set-aside path below
	if n, _ := s.f.ReadAt(magic, 0); n < len(journalMagic) || string(magic) != journalMagic {
		// A foreign or older-generation journal. Its framing cannot
		// be trusted, so recovery sets it aside (journal.old, for
		// manual inspection) and starts fresh rather than failing the
		// run or silently destroying the bytes.
		s.stats.Stale++
		s.mStale.Inc()
		s.f.Close() //opmlint:allow errdiscard — foreign journal we are about to set aside; its close error changes nothing about the recovery
		path := filepath.Join(s.dir, journalName)
		if err := os.Rename(path, path+".old"); err != nil {
			return fmt.Errorf("store: setting aside unreadable journal: %w", err)
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.f = f
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			return fmt.Errorf("store: writing journal header: %w", err)
		}
		return nil
	}
	if _, err := s.f.Seek(int64(len(journalMagic)), 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	out := scanJournal(s.f, int64(len(journalMagic)), size-int64(len(journalMagic)))
	for _, e := range out.entries {
		if _, ok := s.index[e.Digest]; ok {
			s.stats.Superseded++
			s.mSuperseded.Inc()
		} else {
			s.order = append(s.order, e.Digest)
		}
		s.index[e.Digest] = e
	}
	s.stats.Corrupt += out.corrupt
	s.stats.Stale += out.stale
	s.stats.TruncatedBytes = out.truncated
	s.mCorrupt.Add(int64(out.corrupt))
	s.mStale.Add(int64(out.stale))
	if out.truncated > 0 {
		if err := s.f.Truncate(out.goodEnd); err != nil {
			return fmt.Errorf("store: truncating torn journal tail: %w", err)
		}
	}
	if _, err := s.f.Seek(out.goodEnd, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Get looks up a digest and unmarshals the cached result into out.
// It reports whether the lookup hit. A nil store always misses.
func (s *Store) Get(digest string, out any) (bool, error) {
	if s == nil {
		return false, nil
	}
	s.mu.Lock()
	e, ok := s.index[digest]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		s.mMisses.Inc()
		return false, nil
	}
	s.stats.Hits++
	s.mu.Unlock()
	s.mHits.Inc()
	if err := json.Unmarshal(e.Data, out); err != nil {
		return false, fmt.Errorf("store: decoding %s: %w", digest, err)
	}
	return true, nil
}

// GetRaw returns a copy of the cached JSON payload for digest without
// decoding it — the serving fast path: the bytes a hit returns are the
// exact bytes the original Put journaled, so a cache layered above the
// store (the serve daemon's hot set) can hold and serve them verbatim.
// Counts as a hit or miss exactly like Get. A nil store always misses.
func (s *Store) GetRaw(digest string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	e, ok := s.index[digest]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		s.mMisses.Inc()
		return nil, false
	}
	s.stats.Hits++
	data := make([]byte, len(e.Data))
	copy(data, e.Data)
	s.mu.Unlock()
	s.mHits.Inc()
	return data, true
}

// Put journals a result under its digest — one framed, checksummed
// append — and indexes it (last writer wins). This is the sweep's
// checkpoint: once Put returns, the result survives a crash. A
// json.RawMessage is journaled as given and indexed without a copy, so
// a caller that already encoded its value does not pay a second pass:
// it must be json.Marshal output, compact and HTML-escaped, which
// marshalling it again would leave unchanged, and must not be modified
// after. Any other value is marshalled. On a nil store Put is a no-op.
func (s *Store) Put(digest, exp, key string, v any) error {
	if s == nil {
		return nil
	}
	data, ok := v.(json.RawMessage)
	if !ok {
		var err error
		if data, err = json.Marshal(v); err != nil {
			s.countCommitErr()
			return fmt.Errorf("store: encoding %s: %w", digest, err)
		}
	}
	e := entry{V: entryVersion, Digest: digest, Exp: exp, Key: key, Data: data}
	buf, err := encodeFrame(e)
	if err != nil {
		s.countCommitErr()
		return fmt.Errorf("store: encoding %s: %w", digest, err)
	}
	sp := s.reg.StartSpan("store/put")
	defer sp.End()
	s.jmu.Lock()
	defer s.jmu.Unlock()
	//opmlint:allow lockscope — jmu IS the single-writer journal serialization point: the append must happen under it or frames interleave
	if _, err := s.f.Write(buf); err != nil {
		s.mCommitErrs.Inc()
		return fmt.Errorf("store: journaling %s: %w", digest, err)
	}
	// The index changes before jmu is released, so of two Puts to one
	// digest the index keeps the one the journal holds last.
	s.mu.Lock()
	if _, ok := s.index[digest]; ok {
		s.stats.Superseded++
		s.mSuperseded.Inc()
	} else {
		s.order = append(s.order, digest)
	}
	s.index[digest] = e
	s.stats.Commits++
	s.mu.Unlock()
	s.mCommits.Inc()
	return nil
}

func (s *Store) countCommitErr() {
	s.mCommitErrs.Inc()
}

// Len returns the number of live entries (0 on a nil store).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store directory ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats returns the session's tally. Safe on a nil store.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Live = len(s.index)
	return st
}

// garbage reports whether the journal holds dead records worth
// compacting away. Caller holds mu.
func (s *Store) garbage() bool {
	return s.stats.Corrupt > 0 || s.stats.Stale > 0 || s.stats.Superseded > 0
}

// Compact rewrites the journal with only the live records, in
// first-commit order, via a temp file and rename — a crash mid-compact
// leaves the old journal intact.
func (s *Store) Compact() error {
	if s == nil {
		return nil
	}
	sp := s.reg.StartSpan("store/compact")
	defer sp.End()
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	//opmlint:allow lockscope — jmu IS the single-writer journal serialization point: compaction rewrites the journal and must exclude appends
	return s.compactLocked()
}

// compactLocked is Compact's rewrite. Caller holds jmu and mu.
func (s *Store) compactLocked() error {
	path := filepath.Join(s.dir, journalName)
	tmp := path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// One cleanup path for every pre-rename failure: scrap the temp
	// file and leave the old journal as the source of truth.
	committed := false
	defer func() {
		if !committed {
			nf.Close()     //opmlint:allow errdiscard — best-effort scrap of the temp journal; the causing error is already being returned
			os.Remove(tmp) //opmlint:allow errdiscard — best-effort scrap of the temp journal; the causing error is already being returned
		}
	}()
	if _, err := nf.Write([]byte(journalMagic)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, digest := range s.order {
		buf, err := encodeFrame(s.index[digest])
		if err != nil {
			return fmt.Errorf("store: compacting %s: %w", digest, err)
		}
		if _, err := nf.Write(buf); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := nf.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	committed = true
	s.f.Close() //opmlint:allow errdiscard — old pre-compaction fd; the rename already committed the new journal, nothing is actionable here
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening compacted journal: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close() //opmlint:allow errdiscard — best-effort close of a fd we failed to seek; the Seek error is returned
		return fmt.Errorf("store: %w", err)
	}
	s.f = f
	s.stats.Corrupt, s.stats.Stale, s.stats.Superseded = 0, 0, 0
	return nil
}

// Close compacts the journal if it accumulated dead records and closes
// it. Safe on a nil store.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.garbage() {
		//opmlint:allow lockscope — jmu IS the single-writer journal serialization point: Close's final compact must exclude appends
		err = s.compactLocked()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Digest content-addresses one cached result from its identity parts
// — by convention (model version, config hash, sweep family, job key).
// Parts are length-prefixed before hashing so no concatenation of
// different parts can collide ("a","bc" never equals "ab","c").
func Digest(parts ...string) string {
	var stack [256]byte
	buf := stack[:0]
	for _, p := range parts {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	sum := sha256.Sum256(buf)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:])
}
