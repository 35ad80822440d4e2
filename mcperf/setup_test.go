package main

import (
	"context"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for mcperf when a prober starts
// it as a set-up probe child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestProbeSetup(t *testing.T) {
	for _, w := range []string{"cold-small", "warm-large", "serve-mix"} {
		wall, err := probeSetup(config{workload: w, seed: defaultSeed})
		if err != nil || wall <= 0 {
			t.Errorf("%s: probe %v s, %v", w, wall, err)
		}
	}
	if _, err := probeSetup(config{workload: "nope"}); err == nil {
		t.Error("unknown workload: no error")
	}
}

func TestProberTakesProbesInChildren(t *testing.T) {
	p := &prober{cfg: config{workload: "cold-small", seed: defaultSeed}}
	for gap := 1; gap <= 2; gap++ {
		if err := p.take(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(p.walls) != gap*probesPerGap {
			t.Fatalf("after %d gaps: %d samples", gap, len(p.walls))
		}
	}
	rep := &report{Extra: map[string]metric{}}
	if got := p.report(rep); got <= 0 || got != rep.Extra["setup.process_s"].Value {
		t.Errorf("reported %v, extra %v", got, rep.Extra["setup.process_s"])
	}
	p.cfg.workload = "nope"
	if err := p.take(context.Background()); err == nil {
		t.Error("a failing probe child: no error")
	}
}
