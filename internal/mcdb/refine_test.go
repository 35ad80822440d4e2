package mcdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/sat"
	"repro/internal/tt"
	"repro/internal/xag"
)

// publishedMCDist is the class count per multiplicative complexity for n≤4
// inputs, as established in the exact-synthesis literature (Turán–Peralta:
// every function of at most four variables has MC ≤ 3; the eight affine
// classes of four variables split 1/1/3/3 over MC 0..3). The differential
// tests and `mcdb -selftest` cross-check both synthesis backends against it.
var publishedMCDist = map[int]map[int]int{
	1: {0: 1},
	2: {0: 1, 1: 1},
	3: {0: 1, 1: 1, 2: 1},
	4: {0: 1, 1: 1, 2: 3, 3: 3},
}

// realizeThrough realizes f's classified entry into a fresh network via
// realize.go and returns the Bristol bytes plus the simulated truth table.
func realizeThrough(t *testing.T, db *DB, f tt.T) ([]byte, tt.T) {
	t.Helper()
	e, res := db.Lookup(f)
	net := xag.New()
	leaves := make([]xag.Lit, f.N)
	for i := range leaves {
		leaves[i] = net.AddPI(fmt.Sprintf("x%d", i))
	}
	net.AddPO(Realize(net, e, res.Tr, leaves), "f")
	var buf bytes.Buffer
	if err := net.WriteBristol(&buf); err != nil {
		t.Fatalf("WriteBristol: %v", err)
	}
	ins := make([]uint64, f.N)
	for i := range ins {
		ins[i] = tt.Var(i, f.N).Bits
	}
	got := net.Simulate(ins)[0] & tt.Mask(f.N)
	return buf.Bytes(), tt.New(got, f.N)
}

// TestRefineDifferentialExhaustive pits the SAT backend against the
// exhaustive-search backend on every class of up to four variables: with
// Reprove set, the refiner re-derives each optimality proof from scratch.
// Any circuit the solver finds below an exhaustive proof (Improved > 0),
// any failed proof, and any drift in the realized circuits would expose an
// inconsistency between the two backends.
func TestRefineDifferentialExhaustive(t *testing.T) {
	for n := 1; n <= 4; n++ {
		db := New(Options{})
		var reps []tt.T
		seen := map[uint64]bool{}
		var sample []tt.T
		for bits := uint64(0); bits <= tt.Mask(n); bits++ {
			f := tt.New(bits, n)
			res := db.Classify(f)
			if !seen[res.Repr.Bits] {
				seen[res.Repr.Bits] = true
				reps = append(reps, res.Repr)
				db.EntryFor(res.Repr)
				sample = append(sample, f) // first member encountered per class
			}
		}

		priorMC := make(map[uint64]int)
		for _, r := range reps {
			priorMC[r.Bits] = db.EntryFor(r).MC()
		}
		priorBristol := make([][]byte, len(sample))
		for i, f := range sample {
			priorBristol[i], _ = realizeThrough(t, db, f)
		}

		rep := db.Refine(context.Background(), RefineOptions{Reprove: true})
		if rep.Improved != 0 || rep.AndsSaved != 0 {
			t.Fatalf("n=%d: SAT backend 'improved' %d exhaustively-proven entries (%d ANDs) — backend disagreement",
				n, rep.Improved, rep.AndsSaved)
		}
		if rep.Rejected != 0 {
			t.Fatalf("n=%d: %d decoded models rejected by the validation gate", n, rep.Rejected)
		}
		if rep.Unknown != 0 || rep.Proven != rep.Attempted {
			t.Fatalf("n=%d: not every class proven within the default budget: %+v", n, rep)
		}

		dist := map[int]int{}
		for _, r := range reps {
			e := db.EntryFor(r)
			if err := e.Verify(); err != nil {
				t.Fatalf("n=%d repr %s: refined entry does not verify: %v", n, r, err)
			}
			if !e.Exact {
				t.Fatalf("n=%d repr %s: not stamped proven-optimal after refinement", n, r)
			}
			if e.MC() != priorMC[r.Bits] {
				t.Fatalf("n=%d repr %s: MC changed %d -> %d across reproving",
					n, r, priorMC[r.Bits], e.MC())
			}
			dist[e.MC()]++
		}
		for mc, want := range publishedMCDist[n] {
			if dist[mc] != want {
				t.Fatalf("n=%d: %d classes at MC %d, published distribution has %d (got %v)",
					n, dist[mc], mc, want, dist)
			}
		}

		for i, f := range sample {
			b, sim := realizeThrough(t, db, f)
			if sim != f {
				t.Fatalf("n=%d member %s: realization simulates to %s", n, f, sim)
			}
			if !bytes.Equal(b, priorBristol[i]) {
				t.Fatalf("n=%d member %s: realization changed bytes across reproving", n, f)
			}
		}
	}
}

// TestRefineDifferentialRandom5 warms a database under a starved search
// budget (forcing suboptimal Davio circuits), refines it, and checks every
// refined entry simulates to its class representative, never reports an MC
// above the prior entry, and realizes deterministically byte-for-byte.
func TestRefineDifferentialRandom5(t *testing.T) {
	db := New(Options{SearchBudget: 2000, MaxExactK: 2})
	rng := rand.New(rand.NewSource(42))
	var members []tt.T
	reps := map[uint64]tt.T{}
	for i := 0; i < 8; i++ {
		f := tt.New(rng.Uint64()&tt.Mask(5), 5)
		members = append(members, f)
		res := db.Classify(f)
		reps[res.Repr.Bits] = res.Repr
		db.EntryFor(res.Repr)
	}
	priorMC := map[uint64]int{}
	for b, r := range reps {
		priorMC[b] = db.EntryFor(r).MC()
	}

	rep := db.Refine(context.Background(), RefineOptions{Budget: 2000})
	if rep.Rejected != 0 {
		t.Fatalf("validation gate rejected %d models from an honest run", rep.Rejected)
	}
	if rep.Improved == 0 {
		t.Fatal("expected the refiner to improve at least one budget-starved entry")
	}
	if got := db.Stats().RefineImproved; got != rep.Improved {
		t.Fatalf("stats disagree with report: %d vs %d", got, rep.Improved)
	}

	for b, r := range reps {
		e := db.EntryFor(r)
		if e.MC() > priorMC[b] {
			t.Fatalf("repr %s: MC rose %d -> %d", r, priorMC[b], e.MC())
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("repr %s: refined entry does not verify: %v", r, err)
		}
		if e.MC() < priorMC[b] && !e.Refined {
			t.Fatalf("repr %s: improved entry missing the Refined mark", r)
		}
	}
	for _, f := range members {
		b1, sim1 := realizeThrough(t, db, f)
		b2, sim2 := realizeThrough(t, db, f)
		if sim1 != f || sim2 != f {
			t.Fatalf("member %s: realization simulates to %s / %s", f, sim1, sim2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("member %s: realization is not byte-deterministic", f)
		}
	}
}

// bent4 returns x0x1 ⊕ x2x3: degree 2 but MC 2, so its optimality proof
// must come from an actual UNSAT answer at r=1, not the degree bound.
func bent4() tt.T {
	return tt.Var(0, 4).And(tt.Var(1, 4)).Xor(tt.Var(2, 4).And(tt.Var(3, 4)))
}

// TestRefineEncoderUnsatAtMinusOne checks the encoding itself on a function
// whose degree bound is slack: SAT at the known MC (with a decodable,
// verifying model) and UNSAT one step below.
func TestRefineEncoderUnsatAtMinusOne(t *testing.T) {
	f := bent4()
	enc := newSLPEncoder(f, 2)
	if st := enc.s.Solve(context.Background(), 0); st != sat.Sat {
		t.Fatalf("r=2: %v, want SAT", st)
	}
	e, err := enc.decode(enc.s.Model())
	if err != nil {
		t.Fatalf("decode of honest model: %v", err)
	}
	if e.MC() != 2 || e.F != f {
		t.Fatalf("decoded entry: MC=%d F=%s", e.MC(), e.F)
	}
	low := newSLPEncoder(f, 1)
	if st := low.s.Solve(context.Background(), 0); st != sat.Unsat {
		t.Fatalf("r=1: %v, want UNSAT", st)
	}
}

// TestRefineNegativeControl corrupts a genuine SAT model and asserts the
// decode gate quarantines the resulting circuit instead of admitting it.
func TestRefineNegativeControl(t *testing.T) {
	f := bent4()
	enc := newSLPEncoder(f, 2)
	if st := enc.s.Solve(context.Background(), 0); st != sat.Sat {
		t.Fatalf("solve: %v, want SAT", st)
	}
	model := append([]bool(nil), enc.s.Model()...)

	// Flipping the constant bit of the output mask complements the computed
	// function, so the circuit cannot verify against f.
	corrupt := append([]bool(nil), model...)
	corrupt[enc.selOut[0]] = !corrupt[enc.selOut[0]]
	if _, err := enc.decode(corrupt); err == nil {
		t.Fatal("gate admitted a circuit computing the complement of f")
	}

	// A truncated model decodes to empty masks: never a panic, never a
	// wrong admission.
	if _, err := enc.decode(model[:3]); err == nil {
		t.Fatal("gate admitted a circuit decoded from a truncated model")
	}
	if _, err := enc.decode(nil); err == nil {
		t.Fatal("gate admitted a circuit decoded from an empty model")
	}
}

// TestRefineFaultInjection corrupts models end-to-end through the
// PointRefineModel hook: the refiner must count each rejection, leave the
// stored entries untouched, and keep running. The database is the same
// budget-starved n=5 setup as TestRefineDifferentialRandom5, which that
// test proves yields genuinely improvable entries — so the solver does
// find models here, and every one of them arrives corrupted.
func TestRefineFaultInjection(t *testing.T) {
	db := New(Options{SearchBudget: 2000, MaxExactK: 2})
	rng := rand.New(rand.NewSource(42))
	reps := map[uint64]tt.T{}
	for i := 0; i < 8; i++ {
		f := tt.New(rng.Uint64()&tt.Mask(5), 5)
		res := db.Classify(f)
		reps[res.Repr.Bits] = res.Repr
		db.EntryFor(res.Repr)
	}
	priorMC := map[uint64]int{}
	for b, r := range reps {
		priorMC[b] = db.EntryFor(r).MC()
	}

	// The refiner re-encodes per (function, step count); the instance's
	// variable count is a function of (n, r) alone, so a NumVars → selOut[0]
	// map lets the hook find the output mask's constant selector in any
	// model the solver produces and flip it (complementing the circuit).
	// Candidates include entries synthesized internally for subfunction
	// classes, not just the looked-up representatives, so the map is built
	// from the refiner's own candidate list.
	selOutConst := map[int]int{}
	for _, e := range db.refineCandidates(false, maxRefineSteps, 0) {
		for k := 1; k < e.MC(); k++ {
			enc := newSLPEncoder(e.F, k)
			if prev, ok := selOutConst[enc.s.NumVars()]; ok && prev != enc.selOut[0] {
				t.Fatalf("ambiguous variable count %d: selOut[0] %d vs %d",
					enc.s.NumVars(), prev, enc.selOut[0])
			}
			selOutConst[enc.s.NumVars()] = enc.selOut[0]
		}
	}
	faultinject.Set(faultinject.PointRefineModel, func(payload any) {
		m := payload.([]bool)
		idx, ok := selOutConst[len(m)]
		if !ok {
			t.Errorf("model with unexpected variable count %d", len(m))
			return
		}
		m[idx] = !m[idx]
	})
	defer faultinject.Clear(faultinject.PointRefineModel)

	rep := db.Refine(context.Background(), RefineOptions{Budget: 2000})
	if rep.Rejected == 0 {
		t.Fatalf("corrupted models were not rejected: %+v", rep)
	}
	if rep.Improved != 0 {
		t.Fatalf("a corrupted model was admitted as an improvement: %+v", rep)
	}
	if got := db.Stats().RefineRejected; got != rep.Rejected {
		t.Fatalf("RefineRejected stat = %d, want %d", got, rep.Rejected)
	}
	for b, r := range reps {
		if after := db.EntryFor(r); after.MC() != priorMC[b] {
			t.Fatalf("repr %s changed under corrupted models: MC %d -> %d",
				r, priorMC[b], after.MC())
		}
	}
	verifyAllEntries(t, db)
}

// TestRefinedBitPersists pushes a refined, proven entry through all three
// persistence paths — record payload, snapshot, legacy gob — and checks the
// proof bits survive each round trip.
func TestRefinedBitPersists(t *testing.T) {
	db := New(Options{SearchBudget: 2000, MaxExactK: 2})
	f := bent4()
	res := db.Classify(f)
	db.EntryFor(res.Repr)
	db.Refine(context.Background(), RefineOptions{Reprove: true})
	e := db.EntryFor(res.Repr)
	if !e.Exact || !e.Refined {
		t.Fatalf("refined head not stamped: Exact=%v Refined=%v", e.Exact, e.Refined)
	}

	pe, err := decodeEntryPayload(encodeEntryPayload(persistedOf(e)))
	if err != nil {
		t.Fatalf("payload round trip: %v", err)
	}
	if !pe.Exact || !pe.Refined {
		t.Fatalf("payload dropped proof bits: %+v", pe)
	}

	var snap bytes.Buffer
	if _, err := db.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{})
	if rep, err := fresh.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil || !rep.Clean() {
		t.Fatalf("snapshot load: %v %+v", err, rep)
	}
	if got := fresh.EntryFor(res.Repr); !got.Exact || !got.Refined {
		t.Fatalf("snapshot dropped proof bits: Exact=%v Refined=%v", got.Exact, got.Refined)
	}

	var gobBuf bytes.Buffer
	if err := db.Save(&gobBuf); err != nil {
		t.Fatal(err)
	}
	fresh2 := New(Options{})
	if _, err := fresh2.Load(&gobBuf); err != nil {
		t.Fatal(err)
	}
	if got := fresh2.EntryFor(res.Repr); !got.Exact || !got.Refined {
		t.Fatalf("gob dropped proof bits: Exact=%v Refined=%v", got.Exact, got.Refined)
	}
}

// patchHeaderCRC recomputes a snapshot header's checksum after a test
// mutated the version field.
func patchHeaderCRC(raw []byte) {
	binary.LittleEndian.PutUint32(raw[20:], crc32.Checksum(raw[:20], crcTable))
}

// TestSnapshotVersion1Accepted patches a fresh (version 2) snapshot down to
// a version-1 header and checks the loader still admits it — old snapshots
// keep loading after the Refined-flag version bump.
func TestSnapshotVersion1Accepted(t *testing.T) {
	db, _ := warmDB(t, 99, 10)
	var buf bytes.Buffer
	n, err := db.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] = 1 // version field, little-endian low byte
	// Recompute the header checksum over the first 20 bytes.
	patchHeaderCRC(raw)

	fresh := New(Options{})
	rep, err := fresh.LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("version-1 snapshot refused: %v", err)
	}
	if !rep.Clean() || rep.Loaded != n {
		t.Fatalf("version-1 snapshot load not clean: %+v", rep)
	}

	// Versions outside [min, current] stay unreadable.
	raw[8] = 3
	patchHeaderCRC(raw)
	if _, err := New(Options{}).LoadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("future snapshot version admitted")
	}
}

// TestProofBitTieUpgrade checks the Pareto tie rule: an identical circuit
// with stronger proof bits replaces the incumbent (so journal replay
// preserves refiner stamps), while equal-or-weaker duplicates stay no-ops.
func TestProofBitTieUpgrade(t *testing.T) {
	db := New(Options{})
	f := tt.Var(0, 2).And(tt.Var(1, 2))
	plain := &Entry{N: 2, F: f, Steps: []Step{{L: 1 << 1, M: 1 << 2}}, Out: 1 << 3}
	if err := plain.Verify(); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	if !db.addEntryLocked(plain) {
		t.Fatal("first insert refused")
	}
	if db.addEntryLocked(plain) {
		t.Fatal("identical re-insert accepted")
	}
	stamped := &Entry{N: 2, F: f, Steps: plain.Steps, Out: plain.Out, Exact: true, Refined: true}
	if !db.addEntryLocked(stamped) {
		t.Fatal("proof-bit upgrade refused")
	}
	head := db.entries[f][0]
	db.mu.Unlock()
	if !head.Exact || !head.Refined {
		t.Fatalf("head not upgraded: Exact=%v Refined=%v", head.Exact, head.Refined)
	}
	// Replaying the weaker record must not downgrade.
	db.mu.Lock()
	if db.addEntryLocked(plain) {
		t.Fatal("weaker duplicate replaced the proven entry")
	}
	head = db.entries[f][0]
	db.mu.Unlock()
	if !head.Exact || !head.Refined {
		t.Fatal("proof bits lost after replaying the weaker record")
	}
}

// FuzzRefineModel is the decoder mirror of FuzzLoadSnapshot: arbitrary
// model bytes against arbitrary small instances must never panic and never
// admit a circuit that does not verify as exactly (f, r steps).
func FuzzRefineModel(fz *testing.F) {
	// Seed with the honest model of a solvable instance plus mutations.
	f := tt.Var(0, 2).And(tt.Var(1, 2))
	enc := newSLPEncoder(f, 1)
	if st := enc.s.Solve(context.Background(), 0); st != sat.Sat {
		fz.Fatalf("seed instance: %v", st)
	}
	seed := make([]byte, len(enc.s.Model()))
	for i, b := range enc.s.Model() {
		if b {
			seed[i] = 1
		}
	}
	fz.Add(uint8(2), uint8(1), f.Bits, seed)
	fz.Add(uint8(2), uint8(1), f.Bits, seed[:2])
	fz.Add(uint8(1), uint8(0), uint64(0b01), []byte{})
	fz.Add(uint8(3), uint8(3), uint64(0x96), bytes.Repeat([]byte{1}, 64))

	fz.Fuzz(func(t *testing.T, nRaw, rRaw uint8, fbits uint64, modelRaw []byte) {
		n := 1 + int(nRaw)%3 // 1..3 keeps the per-iteration encoding cheap
		r := int(rRaw) % 4   // 0..3
		ft := tt.New(fbits&tt.Mask(n), n)
		e := newSLPEncoder(ft, r)
		model := make([]bool, len(modelRaw))
		for i, b := range modelRaw {
			model[i] = b&1 == 1
		}
		ent, err := e.decode(model)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		if verr := ent.Verify(); verr != nil {
			t.Fatalf("admitted entry does not verify: %v", verr)
		}
		if ent.F != ft || ent.MC() != r || ent.N != n {
			t.Fatalf("admitted entry mismatches the instance: F=%s MC=%d N=%d want F=%s MC=%d N=%d",
				ent.F, ent.MC(), ent.N, ft, r, n)
		}
	})
}
