package fault

import (
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary text to ParseSpec, the parser behind every
// -faults flag. It must return an error rather than panic, and every
// schedule it accepts must survive String -> ParseSpec unchanged. The seed
// corpus in testdata/fuzz/FuzzParseSpec holds the specs the scripts and
// docs use.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if !(s.Rate >= 0 && s.Rate <= 1) {
			t.Fatalf("ParseSpec(%q) accepted rate %v", spec, s.Rate)
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) of accepted %q: %v", s.String(), spec, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip of %q: %+v != %+v", spec, back, s)
		}
	})
}
