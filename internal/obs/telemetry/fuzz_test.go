package telemetry

import (
	"strings"
	"testing"
)

// FuzzParseText feeds arbitrary documents to ParseText, which reads remote
// /metrics for cycadatop -connect and scripts/promcheck. It must return an
// error, never panic, and a document it accepts holds no duplicate series.
// The seed corpus in testdata/fuzz/FuzzParseText holds TestMetricsGolden's
// exposition and the documents of TestParseTextRejectsMalformed.
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		samples, err := ParseText(strings.NewReader(doc))
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for i := range samples {
			k := samples[i].key()
			if seen[k] {
				t.Fatalf("accepted duplicate series %s in %q", k, doc)
			}
			seen[k] = true
		}
	})
}
