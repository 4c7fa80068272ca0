package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

type payload struct {
	GFlops float64
	Label  string
}

func openT(t *testing.T, dir string, reg *obs.Registry) *Store {
	t.Helper()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	want := payload{GFlops: 9.600000000000001, Label: "fig9"}
	d := Digest("v1", "cfg", "sparse/SpMV", "m-001")
	if err := s.Put(d, "sparse/SpMV", "m-001", want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, err := s.Get(d, &got); err != nil || !ok {
		t.Fatalf("same-session get: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, nil)
	defer s2.Close()
	got = payload{}
	if ok, err := s2.Get(d, &got); err != nil || !ok {
		t.Fatalf("reopened get: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("float64 did not round-trip exactly: got %+v want %+v", got, want)
	}
	if ok, _ := s2.Get(Digest("v1", "cfg", "sparse/SpMV", "m-002"), &got); ok {
		t.Fatal("unknown digest hit")
	}
	st := s2.Stats()
	if st.Live != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLastWriterWinsAndCompact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	d := Digest("k")
	for i := 0; i < 3; i++ {
		if err := s.Put(d, "e", "k", payload{GFlops: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(Digest("other"), "e", "other", payload{GFlops: 42}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if ok, _ := s.Get(d, &got); !ok || got.GFlops != 2 {
		t.Fatalf("last writer should win: %+v", got)
	}
	if st := s.Stats(); st.Superseded != 2 || st.Live != 2 {
		t.Fatalf("stats before compact: %+v", st)
	}
	before := journalSize(t, dir)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := journalSize(t, dir); after >= before {
		t.Fatalf("compaction did not shrink journal: %d -> %d", before, after)
	}
	// The store keeps working after the in-place journal swap.
	if err := s.Put(Digest("post"), "e", "post", payload{GFlops: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, nil)
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("live after compact+reopen: %d", s2.Len())
	}
	if ok, _ := s2.Get(d, &got); !ok || got.GFlops != 2 {
		t.Fatalf("compacted value wrong: %+v", got)
	}
	if st := s2.Stats(); st.Superseded != 0 {
		t.Fatalf("compacted journal still has superseded records: %+v", st)
	}

	// index.json exists and is valid JSON listing every live digest.
	data, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		t.Fatal(err)
	}
	var idx indexFile
	if err := json.Unmarshal(data, &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Live != 3 || len(idx.Entries) != 3 {
		t.Fatalf("index: %+v", idx)
	}
}

// seed writes n entries and returns their digests.
func seed(t *testing.T, dir string, n int) []string {
	t.Helper()
	s := openT(t, dir, nil)
	var digests []string
	for i := 0; i < n; i++ {
		d := Digest(fmt.Sprint(i))
		digests = append(digests, d)
		if err := s.Put(d, "exp", fmt.Sprint(i), payload{GFlops: float64(i), Label: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	// Close without index write noise: Close also compacts only on
	// garbage, so the journal keeps its append-order layout.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return digests
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// frameOffsets returns the start offset and total length of every
// frame in the journal, in order.
func frameOffsets(t *testing.T, dir string) [][2]int64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]int64
	off := int64(len(journalMagic))
	for off+frameHeaderLen <= int64(len(data)) {
		n := int64(binary.BigEndian.Uint32(data[off : off+4]))
		out = append(out, [2]int64{off, frameHeaderLen + n})
		off += frameHeaderLen + n
	}
	return out
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	digests := seed(t, dir, 3)
	// Simulate a crash mid-append: a frame header promising more
	// bytes than the file holds.
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [frameHeaderLen + 4]byte
	binary.BigEndian.PutUint32(torn[0:4], 500) // claims 500 payload bytes, provides 4
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := journalSize(t, dir)

	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer s.Close()
	if s.Len() != 3 {
		t.Fatalf("live after torn tail: %d", s.Len())
	}
	st := s.Stats()
	if st.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, len(torn))
	}
	if journalSize(t, dir) != sizeBefore-int64(len(torn)) {
		t.Fatal("journal not physically truncated")
	}
	// Appending after recovery lands on a clean boundary.
	if err := s.Put(Digest("new"), "exp", "new", payload{GFlops: 99}); err != nil {
		t.Fatal(err)
	}
	var got payload
	for _, d := range append(digests, Digest("new")) {
		if ok, _ := s.Get(d, &got); !ok {
			t.Fatalf("digest %s lost after recovery", d[:8])
		}
	}
}

func TestBitFlippedChecksumSkipsOnlyThatRecord(t *testing.T) {
	dir := t.TempDir()
	digests := seed(t, dir, 3)
	frames := frameOffsets(t, dir)
	if len(frames) != 3 {
		t.Fatalf("expected 3 frames, got %d", len(frames))
	}
	// Flip one payload byte in the middle record.
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid := frames[1][0] + frameHeaderLen + frames[1][1]/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], mid); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], mid); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatalf("bit flip must not fail open: %v", err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("live after bit flip: %d, want 2", s.Len())
	}
	var got payload
	if ok, _ := s.Get(digests[1], &got); ok {
		t.Fatal("damaged record served")
	}
	// Records before AND after the damage survive — interior
	// corruption does not truncate the rest of the journal.
	for _, d := range []string{digests[0], digests[2]} {
		if ok, _ := s.Get(d, &got); !ok {
			t.Fatalf("undamaged record %s lost", d[:8])
		}
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count: %+v", st)
	}
	if v := reg.Counter("store/corrupt_records").Value(); v != 1 {
		t.Fatalf("store/corrupt_records = %d", v)
	}
}

func TestVersionMismatchedEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	digests := seed(t, dir, 2)
	// Append a structurally valid record from a "future" schema
	// generation: correct CRC, unknown entry version.
	e := entry{V: entryVersion + 7, Digest: Digest("future"), Exp: "e", Key: "k",
		Data: json.RawMessage(`{"GFlops":1}`)}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame(raw)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("version mismatch must not fail open: %v", err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("live: %d, want 2", s.Len())
	}
	var got payload
	if ok, _ := s.Get(Digest("future"), &got); ok {
		t.Fatal("version-mismatched record served")
	}
	for _, d := range digests {
		if ok, _ := s.Get(d, &got); !ok {
			t.Fatalf("current-version record %s lost", d[:8])
		}
	}
	if st := s.Stats(); st.Stale != 1 {
		t.Fatalf("stale count: %+v", st)
	}
}

func TestForeignJournalSetAsideNotDestroyed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("NOTASTORE\nsomething else\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("foreign journal must not fail open: %v", err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("live: %d", s.Len())
	}
	if err := s.Put(Digest("a"), "e", "a", payload{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".old"); err != nil {
		t.Fatalf("foreign journal not preserved: %v", err)
	}
}

func TestConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, nil)
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("%d/%d", w, i)
				if err := s.Put(Digest(key), "e", key, payload{GFlops: float64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, nil)
	defer s2.Close()
	if s2.Len() != workers*each {
		t.Fatalf("live after concurrent puts: %d, want %d", s2.Len(), workers*each)
	}
	var got payload
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			if ok, err := s2.Get(Digest(fmt.Sprintf("%d/%d", w, i)), &got); !ok || err != nil {
				t.Fatalf("lost %d/%d: ok=%v err=%v", w, i, ok, err)
			}
		}
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	if ok, err := s.Get("d", nil); ok || err != nil {
		t.Fatal("nil store Get")
	}
	if err := s.Put("d", "e", "k", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Dir() != "" || s.Stats() != (Stats{}) {
		t.Fatal("nil store accessors")
	}
}

func TestDigestSeparatesParts(t *testing.T) {
	if Digest("a", "bc") == Digest("ab", "c") {
		t.Fatal("part boundaries must be hashed")
	}
	if Digest("a") != Digest("a") {
		t.Fatal("digest not deterministic")
	}
	if Digest("v", "c", "e", "k") == Digest("v", "c", "e", "k2") {
		t.Fatal("job key ignored")
	}
}

// TestCRCDetectsEveryHeaderCorruption flips each header byte of a
// single-record journal and checks open never fails and never serves
// the record with a wrong frame.
func TestCRCDetectsEveryHeaderCorruption(t *testing.T) {
	for bit := 0; bit < frameHeaderLen; bit++ {
		dir := t.TempDir()
		d := seed(t, dir, 1)[0]
		frames := frameOffsets(t, dir)
		f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		off := frames[0][0] + int64(bit)
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x01
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		f.Close()
		s, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("header byte %d: open failed: %v", bit, err)
		}
		var got payload
		if ok, _ := s.Get(d, &got); ok && got.Label != "x" {
			t.Fatalf("header byte %d: served damaged data %+v", bit, got)
		}
		s.Close()
	}
}

// sanity-check the CRC polynomial choice is wired (Castagnoli, not IEEE).
func TestChecksumIsCastagnoli(t *testing.T) {
	p := []byte("opm")
	if crc32.Checksum(p, castagnoli) == crc32.ChecksumIEEE(p) {
		t.Skip("polynomials coincide on this input")
	}
	fr := frame(p)
	if binary.BigEndian.Uint32(fr[4:8]) != crc32.Checksum(p, castagnoli) {
		t.Fatal("frame checksum is not CRC-32C")
	}
}

// FuzzOpen writes the fuzzed bytes as a store's journal. Open replays
// the journal and is its only decoder, and damage never fails it, so
// Open must neither panic nor return an error. Whatever it recovered
// must then survive a Put, a Close (which compacts any damage away)
// and a second Open, which must find no corrupt, stale or superseded
// record and no torn tail. Every recovered digest must come back with
// a JSON-equal payload (compaction re-encodes a payload that was not
// written in compact form), and the new cell byte for byte. The
// committed seeds under testdata/fuzz/FuzzOpen cover an empty file,
// the magic line alone, two valid records, a torn tail, a length field
// above maxRecordLen, an interior bit flip, a foreign magic line and a
// stale-version record.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("Open failed on arbitrary journal bytes: %v", err)
		}
		fresh := Digest("fuzz", "fresh")
		recovered := map[string][]byte{}
		for digest, e := range s.index {
			if digest != fresh {
				recovered[digest] = e.Data
			}
		}
		if err := s.Put(fresh, "fuzz", "fresh", payload{GFlops: 1.5, Label: "<fresh>"}); err != nil {
			t.Fatal(err)
		}
		want, _ := s.GetRaw(fresh)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		st := s2.Stats()
		if st.Corrupt != 0 || st.Stale != 0 || st.Superseded != 0 || st.TruncatedBytes != 0 {
			t.Fatalf("reopen after Close found damage: %+v", st)
		}
		if st.Live != len(recovered)+1 {
			t.Fatalf("reopen holds %d digests, want %d recovered + 1 fresh", st.Live, len(recovered))
		}
		for digest, data := range recovered {
			got, ok := s2.GetRaw(digest)
			if !ok {
				t.Fatalf("recovered digest %q lost across Close", digest)
			}
			if !jsonEqual(t, data, got) {
				t.Fatalf("digest %q payload changed across Close: %q -> %q", digest, data, got)
			}
		}
		if got, ok := s2.GetRaw(fresh); !ok || !bytes.Equal(got, want) {
			t.Fatalf("fresh cell = %q (hit %v), want %q", got, ok, want)
		}
	})
}

// jsonEqual reports whether two payloads decode to the same JSON value,
// numbers compared by their literal text. An empty payload (a record
// with no data field) reads as null, which is what compaction writes
// for it.
func jsonEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	decode := func(data []byte) any {
		if len(data) == 0 {
			data = []byte("null")
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("payload %q does not decode: %v", data, err)
		}
		return v
	}
	return reflect.DeepEqual(decode(a), decode(b))
}
