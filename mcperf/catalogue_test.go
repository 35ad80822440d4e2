package main

import (
	"reflect"
	"testing"
)

// TestSeedDeterminesInputs checks that the serve-mix catalogue and request
// order are a pure function of the seed, and that another seed gives
// another workload, so a claim can be re-checked on a held-out seed.
func TestSeedDeterminesInputs(t *testing.T) {
	c1, c1again, c2 := catalogue(1), catalogue(1), catalogue(2)
	if !reflect.DeepEqual(c1, c1again) {
		t.Fatal("seed 1 gave two different catalogues")
	}
	if reflect.DeepEqual(c1, c2) {
		t.Fatal("seeds 1 and 2 gave the same catalogue")
	}
	s1, s1again, s2 := sequence(1, catalogueSize, hitsPerKey), sequence(1, catalogueSize, hitsPerKey), sequence(2, catalogueSize, hitsPerKey)
	if !reflect.DeepEqual(s1, s1again) {
		t.Fatal("seed 1 gave two different request sequences")
	}
	if reflect.DeepEqual(s1, s2) {
		t.Fatal("seeds 1 and 2 gave the same request sequence")
	}
}

func TestCatalogueShape(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c := catalogue(seed)
		seen := map[string]bool{}
		gens := map[string]int{}
		depth := 0
		for _, g := range c {
			if seen[g.circuit()] {
				t.Fatalf("seed %d: %s drawn twice", seed, g.circuit())
			}
			seen[g.circuit()] = true
			gens[g.Gen]++
			if g.Cost == "depth" {
				depth++
			}
		}
		if len(c) != catalogueSize || len(c) < 100 || len(gens) != 5 || depth != 22 {
			t.Fatalf("seed %d: %d circuits over %d generators, %d under depth", seed, len(c), len(gens), depth)
		}
	}
}

func TestSequenceShape(t *testing.T) {
	const keys = catalogueSize
	steps := sequence(7, keys, hitsPerKey)
	introduced := map[int]int{} // key -> introduction index
	repeats := map[int]int{}
	pairs := 0
	for _, s := range steps {
		if _, ok := introduced[s.Key]; !ok {
			introduced[s.Key] = len(introduced)
			if s.Pair {
				pairs++
			}
			continue
		}
		if s.Pair {
			t.Fatalf("repeat of key %d marked as a pair", s.Key)
		}
		if i := introduced[s.Key]; i+2 < keys && i >= len(introduced)-2 {
			t.Fatalf("repeat of key %d comes before two more keys were introduced", s.Key)
		}
		repeats[s.Key]++
	}
	if len(introduced) != keys || len(steps) != keys*(1+hitsPerKey) {
		t.Fatalf("%d keys introduced in %d steps; want %d in %d", len(introduced), len(steps), keys, keys*(1+hitsPerKey))
	}
	for k, n := range repeats {
		if n != hitsPerKey {
			t.Fatalf("key %d repeated %d times, want %d", k, n, hitsPerKey)
		}
	}
	if pairs != keys*pairPercent/100 {
		t.Fatalf("%d pair keys, want %d", pairs, keys*pairPercent/100)
	}
}
