package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/trace"
)

// hostileStrings are digest, exp and key values that make json.Marshal
// escape: HTML-sensitive bytes, quotes, backslashes, control bytes, the
// JavaScript line separators and invalid UTF-8.
var hostileStrings = []string{
	"",
	"dense",
	"<script>&amp;</script>",
	`"quoted" and \backslashed\`,
	"ctl\x00\x01\x1f\x7f\t\n\r",
	"sep\u2028line\u2029para",
	"bad\xff\xfeutf8\xc3",
	"é日本🙂",
}

// frame is the reference framing of one payload: the 8-byte header
// (big-endian length, then CRC-32C), then the payload.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderLen:], payload)
	return buf
}

// checkEncode fails the test unless encodeFrame(e) equals
// frame(json.Marshal(e)). An empty Data must encode as null, as a nil
// one does in json.Marshal (which rejects an empty RawMessage).
func checkEncode(t *testing.T, e entry) {
	t.Helper()
	ref := e
	if len(ref.Data) == 0 {
		ref.Data = nil
	}
	payload, err := json.Marshal(ref)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", ref, err)
	}
	want := frame(payload)
	got, err := encodeFrame(e)
	if err != nil {
		t.Fatalf("encodeFrame(%+v): %v", e, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeFrame differs from the framed json.Marshal:\n got %q\nwant %q", got, want)
	}
}

// marshalT is json.Marshal for values that always encode.
func marshalT(t *testing.T, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEntryEncodeMatchesMarshal pins the journal record encoding: for
// every payload Put can produce (json.Marshal output), a nil or empty
// one, and every head string, encodeFrame writes exactly the 8-byte
// header and the bytes json.Marshal(entry) writes, so the journal is
// unchanged by building a record in one buffer.
func TestEntryEncodeMatchesMarshal(t *testing.T) {
	result := memsim.Result{
		Kernel: "GEMM", Machine: "knl", Mode: memsim.ModeHybrid,
		GFlops: 1201.3333333333333, Seconds: 1e-300, Bound: memsim.BoundDDRBW,
		MemGBs: 89.6, Flops: 6.5536e13, FootprintBytes: 8 << 30,
		ComputeSec: 0.1, LatencySec: 5e-324, EffectiveMLP: 8,
	}
	result.BWSec[memsim.SrcDDR] = 0.2
	hostile := "a <b> & \"c\" \\ \u2028 \u2029 \x01 \xff"
	datas := map[string]json.RawMessage{
		"result":  marshalT(t, result),
		"string":  marshalT(t, hostile),
		"nested":  marshalT(t, map[string]any{"k": []any{hostile, 1.5, nil, true, map[string]int{"<": 1}}, "": "x"}),
		"payload": marshalT(t, payload{GFlops: 9.600000000000001, Label: hostile}),
		"raw":     marshalT(t, json.RawMessage(" { \"a\" : [ 1 , \"<&>\" ] } ")),
		"number":  marshalT(t, -0.0),
		"nil":     nil,
		"empty":   {},
	}
	for name, data := range datas {
		for _, v := range []int{entryVersion, 0, -1, 1 << 40} {
			for _, s := range hostileStrings {
				checkEncode(t, entry{V: v, Digest: s, Exp: "exp", Key: "key", Data: data})
				checkEncode(t, entry{V: v, Digest: "d", Exp: s, Key: "key", Data: data})
				checkEncode(t, entry{V: v, Digest: "d", Exp: "exp", Key: s, Data: data})
			}
		}
		t.Logf("%s: %d bytes", name, len(data))
	}
}

// FuzzEntryEncode holds encodeFrame to the framed json.Marshal bytes
// for fuzzed head strings and for payloads json.Marshal produced: a
// struct, a nested value, and any valid JSON the fuzzer finds,
// re-marshalled as a RawMessage (json.Marshal compacts and escapes it
// first, as Put's payload always is), and for a nil and an empty
// payload, which encode as null. The committed seeds under
// testdata/fuzz/FuzzEntryEncode cover the escaping cases of
// hostileStrings and non-compact raw JSON.
func FuzzEntryEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, digest, exp, key, label string, gflops float64, raw []byte) {
		datas := []json.RawMessage{nil, {}}
		if data, err := json.Marshal(payload{GFlops: gflops, Label: label}); err == nil {
			datas = append(datas, data)
		}
		nested := map[string]any{label: []any{label, map[string]string{key: exp}}}
		datas = append(datas, marshalT(t, nested))
		if json.Valid(raw) {
			datas = append(datas, marshalT(t, json.RawMessage(raw)))
		}
		for _, data := range datas {
			checkEncode(t, entry{V: entryVersion, Digest: digest, Exp: exp, Key: key, Data: data})
		}
	})
}

// denseResult is one dense cell's result as a dense sweep commits it:
// GEMM on KNL in cache mode.
func denseResult(tb testing.TB) memsim.Result {
	tb.Helper()
	m, err := core.NewMachine(platform.KNL(), memsim.ModeCache)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := m.RunDense(trace.DenseGEMM, 16640, 1024)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestCommitPathAllocates pins the allocations of a dense cell's
// commit. Digest makes only the returned string. Put makes the
// result's interface value, its json.Marshal copy and its mode's
// MarshalText, the head's interface value and json.Marshal copy, and
// the one frame buffer (six); the digest is the same on every run, so
// the index map never grows. Put's count is not pinned under the race
// detector, whose sync.Pool drops a random share of what it is given,
// so json.Marshal's pooled encoder state allocates at random. The
// collector is off while counting, as a collection adds the runtime's
// own allocations to the count.
func TestCommitPathAllocates(t *testing.T) {
	s := openT(t, t.TempDir(), nil)
	defer s.Close()
	r := denseResult(t)
	d := Digest("v", "", "dense", "key")
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(20, func() { Digest("v", "", "dense", "key") }); got != 1 {
		t.Errorf("Digest: %v allocations, want 1", got)
	}
	if raceEnabled() {
		t.Skip("Put's allocations vary under the race detector")
	}
	put := testing.AllocsPerRun(20, func() {
		if err := s.Put(d, "dense", "key", r); err != nil {
			t.Fatal(err)
		}
	})
	if put != 6 {
		t.Errorf("Put of a dense result: %v allocations, want 6", put)
	}
}

// BenchmarkStorePut times the commit of one dense cell's result: one
// Put per op into a store in a temporary directory, so each op
// marshals the result, frames the record and appends it to the
// journal.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	r := denseResult(b)
	d := Digest("v", "", "dense", "key")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(d, "dense", "key", r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPutRawMessageJournalsMarshalBytes: Put journals a json.RawMessage
// as given, so Put of json.Marshal(v) writes the same journal bytes as
// Put of v, for a dense result and for a payload whose strings
// json.Marshal escapes.
func TestPutRawMessageJournalsMarshalBytes(t *testing.T) {
	d := Digest("v", "", "dense", "key")
	for name, v := range map[string]any{
		"result":  denseResult(t),
		"hostile": payload{GFlops: 1e21, Label: "a <b> & \"c\" \\ \u2028 \u2029 \x01 \xff"},
	} {
		var journals [2][]byte
		for i, put := range []any{v, marshalT(t, v)} {
			dir := t.TempDir()
			s := openT(t, dir, nil)
			if err := s.Put(d, "dense", "key", put); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, journalName))
			if err != nil {
				t.Fatal(err)
			}
			journals[i] = data
		}
		if !bytes.Equal(journals[0], journals[1]) {
			t.Fatalf("%s: Put of the marshalled bytes journals\n%q\nPut of the value\n%q", name, journals[1], journals[0])
		}
	}
}
