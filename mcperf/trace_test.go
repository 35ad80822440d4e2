package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
)

func span(id, parent int, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func total(m map[string]time.Duration) time.Duration {
	var d time.Duration
	for _, v := range m {
		d += v
	}
	return d
}

func TestSelfTimesNested(t *testing.T) {
	// pass [0,100): leg [10,90) holding classify [10,60) with spectral
	// [15,35) and synth [35,55), then commit [60,80).
	spans := []Span{
		span(1, 0, "pass", 0, 100),
		span(2, 1, "leg", 10, 90),
		span(3, 2, "core.classify", 10, 60),
		span(4, 3, "spectral.classify", 15, 35),
		span(5, 3, "mcdb.synth", 35, 55),
		span(6, 2, "core.commit", 60, 80),
	}
	got := selfTimes(spans, 1)
	want := map[string]time.Duration{
		"pass": 20, "leg": 10, "core.classify": 10,
		"spectral.classify": 20, "mcdb.synth": 20, "core.commit": 20,
	}
	for n, d := range want {
		if got[n] != d {
			t.Errorf("%s: self %d, want %d", n, got[n], d)
		}
	}
	if total(got) != 100 {
		t.Errorf("self times sum to %d, want the pass's 100", total(got))
	}
}

func TestSelfTimesConcurrentAndClipped(t *testing.T) {
	// Two clients' requests overlap on [20,40); a child that outlives its
	// parent is clipped to it; a span outside the root is ignored.
	spans := []Span{
		span(1, 0, "pass", 0, 100),
		span(2, 1, "http.request", 0, 40),
		span(3, 1, "http.request", 20, 60),
		span(4, 1, "leg", 70, 90),
		span(5, 4, "core.commit", 80, 95),
		span(6, 0, "replay", 100, 200),
	}
	got := selfTimes(spans, 1)
	if got["http.request"] != 60 { // [0,20)+[20,40) shared+[40,60)
		t.Errorf("http.request self %d, want 60", got["http.request"])
	}
	if got["core.commit"] != 10 || got["leg"] != 10 {
		t.Errorf("leg %d, core.commit %d, want 10 and 10", got["leg"], got["core.commit"])
	}
	if got["pass"] != 20 || got["replay"] != 0 {
		t.Errorf("pass %d, replay %d, want 20 and 0", got["pass"], got["replay"])
	}
	if total(got) != 100 {
		t.Errorf("self times sum to %d, want 100", total(got))
	}
}

// TestSelfTimesAddUp checks on random span trees, with concurrent and
// overhanging children, that the per-name self times plus the root's own
// (unaccounted) time add up to the root's duration.
func TestSelfTimesAddUp(t *testing.T) {
	names := []string{"leg", "round", "cut.enumerate", "core.classify", "spectral.classify", "http.request"}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		spans := []Span{span(1, 0, "pass", 0, 1000)}
		for id := 2; id < 2+rng.Intn(40); id++ {
			p := spans[rng.Intn(len(spans))]
			start := p.Start + rng.Int63n(p.End-p.Start+1)
			end := start + rng.Int63n(400)
			spans = append(spans, span(id, p.ID, names[rng.Intn(len(names))], start, end))
		}
		if got := total(selfTimes(spans, 1)); got != 1000 {
			t.Fatalf("trial %d: self times sum to %d, want 1000 (spans %v)", trial, got, spans)
		}
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *Recorder
	id := r.Open(0, "pass", "")
	r.Close(id)
	if id != 0 || r.Spans() != nil {
		t.Fatalf("nil recorder recorded span %d", id)
	}
	rec := newRecorder()
	root := rec.Open(0, "pass", "")
	child := rec.Open(root, "leg", "x")
	rec.Close(child)
	rec.Close(root)
	s := rec.Spans()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
}

// TestTracedPassTree runs a traced pass over one small cold leg and checks
// the span tree the per-layer metrics are read from: the self times add up
// to the pass, and the spectral and synthesis spans sit under core.classify.
func TestTracedPassTree(t *testing.T) {
	legs, err := buildLegs([]legSpec{{"adder-32", "mc"}})
	if err != nil {
		t.Fatal(err)
	}
	r := &optRunner{legs: legs, cold: true, reg: metrics.NewRegistry(), seed: 1}
	if legs[0].rounds, err = roundNetworks(context.Background(), legs[0], newDB(metrics.NewRegistry())); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	_, outs, root := r.pass(context.Background(), 0, rec)
	if outs[0].err != nil {
		t.Fatal(outs[0].err)
	}
	spans := rec.Spans()
	byID := map[int]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name == "spectral.classify" || s.Name == "mcdb.synth" {
			if p := byID[s.Parent]; p.Name != "core.classify" {
				t.Errorf("%s sits under %q", s.Name, p.Name)
			}
		}
	}
	self := selfTimes(spans, root)
	if d := time.Duration(byID[root].End - byID[root].Start); total(self) != d {
		t.Errorf("self times sum to %v, pass took %v", total(self), d)
	}
	for _, n := range []string{"spectral.classify", "mcdb.synth", "cut.enumerate", "core.commit", "sim.verify", "xag.parse"} {
		if self[n] <= 0 {
			t.Errorf("no self time for %s: %v", n, self)
		}
	}
}
