package store

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/memsim"
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

// checkEncode fails the test unless encodeEntry(e) equals json.Marshal(e).
func checkEncode(t *testing.T, e entry) {
	t.Helper()
	want, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", e, err)
	}
	got, err := encodeEntry(e)
	if err != nil {
		t.Fatalf("encodeEntry(%+v): %v", e, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeEntry differs from json.Marshal:\n got %q\nwant %q", got, want)
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
// every payload Put can produce (json.Marshal output) and every head
// string, encodeEntry writes exactly the bytes json.Marshal(entry)
// writes, so the journal is unchanged by encoding a record once.
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

// FuzzEntryEncode holds encodeEntry to json.Marshal's bytes for fuzzed
// head strings and for payloads json.Marshal produced: a struct, a
// nested value, and any valid JSON the fuzzer finds, re-marshalled as a
// RawMessage (json.Marshal compacts and escapes it first, as Put's
// payload always is). The committed seeds under
// testdata/fuzz/FuzzEntryEncode cover the escaping cases of
// hostileStrings and non-compact raw JSON.
func FuzzEntryEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, digest, exp, key, label string, gflops float64, raw []byte) {
		var datas []json.RawMessage
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
