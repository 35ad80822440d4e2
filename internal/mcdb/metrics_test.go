package mcdb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tt"
)

// TestClassifyFastPathMetricsExposition scrapes the registry after classify
// traffic and checks the fast-path instruments render in exposition format
// with live values.
func TestClassifyFastPathMetricsExposition(t *testing.T) {
	db := New(Options{})
	reg := metrics.NewRegistry()
	db.RegisterMetrics(reg)

	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 12; i++ {
		f := tt.New(rng.Uint64(), 6)
		db.Classify(f)
		db.Classify(f) // a class-cache hit: observes no steps
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE mcc_classify_steps histogram",
		"mcc_classify_steps_count",
		"mcc_classify_steps_bucket",
		"mcdb_incomplete_classifications_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}

	s := db.Stats()
	if s.Classified == 0 || s.ClassCacheHits == 0 {
		t.Fatalf("expected both misses and hits, got %+v", s)
	}
	for name, want := range map[string]float64{
		"mcc_classify_steps_count":              float64(s.Classified),
		"mcdb_incomplete_classifications_total": float64(s.Incomplete),
		"mcdb_class_cache_hits_total":           float64(s.ClassCacheHits),
	} {
		found := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name+" ") {
				found = true
				var v float64
				if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				if v != want {
					t.Fatalf("%s = %g, want %g", name, v, want)
				}
			}
		}
		if !found {
			t.Fatalf("sample %s not found in exposition", name)
		}
	}
}
