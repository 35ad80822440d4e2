package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bench"
	"repro/internal/xag"
)

// genSpec is one parameterized circuit of the serve-mix catalogue and the
// cost model it is requested under.
type genSpec struct {
	Gen     string // adder | comparator | max | multiplier | control
	W       int    // operand width; input count for control
	Signed  bool
	OrEqual bool
	Out     int
	Terms   int
	Name    string
	Cost    string
}

// circuit names the circuit alone, without its cost model.
func (g genSpec) circuit() string {
	switch g.Gen {
	case "comparator":
		return fmt.Sprintf("comparator-%d-s%t-e%t", g.W, g.Signed, g.OrEqual)
	case "control":
		return fmt.Sprintf("control-%s-%d-%d-%d", g.Name, g.W, g.Out, g.Terms)
	}
	return fmt.Sprintf("%s-%d", g.Gen, g.W)
}

func (g genSpec) label() string { return g.circuit() + "/" + g.Cost }

func (g genSpec) build() *xag.Network {
	switch g.Gen {
	case "adder":
		return bench.Adder(g.W)
	case "comparator":
		return bench.Comparator(g.W, g.Signed, g.OrEqual)
	case "max":
		return bench.Max(g.W)
	case "multiplier":
		return bench.Multiplier(g.W)
	}
	return bench.ControlLogic(g.Name, g.W, g.Out, g.Terms)
}

// depthGroup sets the share of circuits requested under the depth model:
// each generator's slots, in order of size, fall into groups of
// depthGroup, and the seed picks one slot of every full group for depth.
// The rest use mc.
const depthGroup = 5

// slot counts per generator; they add up to catalogueSize.
const (
	adderSlots      = 30
	comparatorSlots = 28
	maxSlots        = 14
	multiplierSlots = 6
	controlSlots    = 42
)

// stratum draws slot i of n from [lo, hi): the range is cut into n equal
// strata and the slot's value is drawn from its own, so slots never
// collide when hi-lo is a multiple of n. Stratifying keeps the
// catalogue's size mix, and so its totals, nearly the same for every seed
// while every width is still seeded.
func stratum(rng *rand.Rand, lo, hi, i, n int) int {
	return lo + int(float64(hi-lo)*(float64(i)+rng.Float64())/float64(n))
}

// catalogue draws the serve-mix catalogue from seed: distinct
// parameterized circuits of five generators, small enough that a miss on
// a warm database costs milliseconds, not seconds.
func catalogue(seed int64) []genSpec {
	rng := rand.New(rand.NewSource(seed))
	var out []genSpec
	add := func(gs []genSpec) {
		for i := range gs {
			gs[i].Cost = "mc"
		}
		for g := 0; g+depthGroup <= len(gs); g += depthGroup {
			gs[g+rng.Intn(depthGroup)].Cost = "depth"
		}
		out = append(out, gs...)
	}
	var gs []genSpec
	for i := 0; i < adderSlots; i++ {
		gs = append(gs, genSpec{Gen: "adder", W: stratum(rng, 4, 4+2*adderSlots, i, adderSlots)})
	}
	add(gs)
	gs = nil
	for i := 0; i < comparatorSlots; i++ {
		gs = append(gs, genSpec{Gen: "comparator", W: stratum(rng, 4, 32, i/4, comparatorSlots/4),
			Signed: i%2 == 1, OrEqual: i%4 >= 2})
	}
	add(gs)
	gs = nil
	for i := 0; i < maxSlots; i++ {
		gs = append(gs, genSpec{Gen: "max", W: stratum(rng, 3, 3+maxSlots, i, maxSlots)})
	}
	add(gs)
	gs = nil
	for i := 0; i < multiplierSlots; i++ {
		gs = append(gs, genSpec{Gen: "multiplier", W: stratum(rng, 3, 3+multiplierSlots, i, multiplierSlots)})
	}
	add(gs)
	gs = nil
	for i := 0; i < controlSlots; i++ {
		gs = append(gs, genSpec{Gen: "control", Name: fmt.Sprintf("mix%d", rng.Int63()),
			W: stratum(rng, 6, 15, i, controlSlots), Out: 1 + i%6, Terms: 3 + i/6})
	}
	add(gs)
	return out
}

// step is one entry of the request sequence: a request for catalogue key
// Key, sent by one client, or by both clients at once when Pair is set.
type step struct {
	Key  int
	Pair bool
}

// pairPercent is the share of keys, in percent, whose first request is a
// pair: a miss and, while it computes, a coalesced follower.
const pairPercent = 15

// sequence draws the request order over keys catalogue keys from seed.
// Keys are introduced one per time unit in a seeded order, and each is
// repeated exactly hitsPerKey times at seeded times spread over the keys
// time units after the next two introductions. Equal repeat counts keep
// the hit traffic, like the catalogue, nearly the same for every seed;
// the two-introduction gap lets a repeat normally find its key's result
// cached rather than still computing.
func sequence(seed int64, keys, hitsPerKey int) []step {
	rng := rand.New(rand.NewSource(seed ^ 0x5e9_1e5e))
	order := rng.Perm(keys)
	pair := make([]bool, keys)
	for _, k := range rng.Perm(keys)[:keys*pairPercent/100] {
		pair[k] = true
	}
	type event struct {
		at float64
		s  step
	}
	var evs []event
	for i, k := range order {
		evs = append(evs, event{float64(i), step{Key: k, Pair: pair[k]}})
		for r := 0; r < hitsPerKey; r++ {
			evs = append(evs, event{float64(i+2) + rng.Float64()*float64(keys), step{Key: k}})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	out := make([]step, len(evs))
	for i, e := range evs {
		out[i] = e.s
	}
	return out
}
