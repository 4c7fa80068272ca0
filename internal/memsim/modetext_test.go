package memsim

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestModeTextRoundTrip: every Mode label parses back to itself, and a
// Mode-keyed map survives a JSON round trip bit-for-bit — the property
// the persistent result store relies on to make warm runs render
// byte-identical reports.
func TestModeTextRoundTrip(t *testing.T) {
	for m := ModeDDR; m <= ModeEDRAMMemSide; m++ {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got != m {
			t.Fatalf("ParseMode(%q) = %v want %v", m.String(), got, m)
		}
	}
	if _, err := ParseMode("nonsense"); err == nil {
		t.Fatal("ParseMode accepted garbage")
	}

	in := map[Mode]float64{ModeDDR: 1.1, ModeEDRAM: 9.600000000000001, ModeHybrid: 0.125}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out map[Mode]float64
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %v -> %s -> %v", in, data, out)
	}
}

// FuzzParseMode feeds arbitrary labels to ParseMode and UnmarshalText.
// Neither may panic; a label ParseMode accepts must marshal back to the
// same bytes; and UnmarshalText must accept exactly what ParseMode
// accepts, store the same Mode, and leave its receiver unchanged when
// it rejects.
func FuzzParseMode(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		want, perr := ParseMode(s)
		const untouched = Mode(-1)
		got := untouched
		uerr := got.UnmarshalText([]byte(s))
		if (perr == nil) != (uerr == nil) {
			t.Fatalf("%q: ParseMode error %v, UnmarshalText error %v", s, perr, uerr)
		}
		if perr != nil {
			if got != untouched {
				t.Fatalf("%q rejected but UnmarshalText stored %v", s, got)
			}
			return
		}
		if got != want {
			t.Fatalf("%q: UnmarshalText stored %v, ParseMode returned %v", s, got, want)
		}
		b, err := want.MarshalText()
		if err != nil {
			t.Fatalf("%q: MarshalText: %v", s, err)
		}
		if string(b) != s {
			t.Fatalf("%q parses to %v, which marshals to %q", s, want, b)
		}
	})
}
