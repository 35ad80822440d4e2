package main

import (
	"context"
	"testing"

	"repro/internal/mcdb"
)

// TestServePass drives a small catalogue through a serve pass and its
// correctness gate: one miss per key, every other request served from the
// cache or coalesced, and every served circuit equivalent to its request.
func TestServePass(t *testing.T) {
	specs := []genSpec{
		{Gen: "adder", W: 6, Cost: "mc"},
		{Gen: "adder", W: 9, Cost: "depth"},
		{Gen: "comparator", W: 5, Signed: true, Cost: "mc"},
		{Gen: "max", W: 4, Cost: "mc"},
		{Gen: "multiplier", W: 3, Cost: "depth"},
		{Gen: "control", Name: "t", W: 7, Out: 2, Terms: 4, Cost: "mc"},
	}
	keys, err := buildKeys(specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	db := mcdb.New(mcdb.Options{})
	warmServeDB(ctx, db, keys)
	steps := []step{{Key: 0, Pair: true}, {Key: 1}, {Key: 2, Pair: true}, {Key: 0}, {Key: 3}, {Key: 4}, {Key: 1}, {Key: 5}, {Key: 2}, {Key: 0}, {Key: 3}}
	r := &serveRunner{keys: keys, steps: steps, db: db, seed: 1}
	p := r.pass(ctx, newRecorder())
	byKey, errs := r.checkPass(p)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if len(p.samples) != len(steps)+2 || len(byKey) != len(keys) {
		t.Fatalf("%d requests, %d keys with a miss", len(p.samples), len(byKey))
	}
	if p.cache.Misses != int64(len(keys)) || p.cache.Hits+p.cache.Coalesced != int64(len(steps)+2-len(keys)) {
		t.Fatalf("cache stats %+v", p.cache)
	}
	legs, errs := r.replay(ctx, p, newRecorder(), 0)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	for _, o := range legs {
		for k, kr := range byKey {
			if keys[k].spec.label() == o.name && kr.andAfter != o.andAfter {
				t.Errorf("%s: served %d ANDs, library %d", o.name, kr.andAfter, o.andAfter)
			}
		}
	}
}
