package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/mcdb"
	"repro/internal/sim"
	"repro/internal/xag"
)

// roundReference runs Engine.Round to convergence the way Minimize does:
// it starts from n.Cleanup() and stops at the first round that does not
// improve, keeping that round's output when it ties and its input when it
// made the cost worse. Round carries no state from one pass to the next, so
// this is the full-recompute reference that Minimize, with its cross-round
// cut seeds, must match byte for byte and counter for counter. It returns
// the network, the number of rounds run, and the engine's degradation
// counters.
func roundReference(t testing.TB, n *xag.Network, opts Options) (*xag.Network, int, Degradation) {
	t.Helper()
	eng := NewEngine(opts.DB, opts)
	net := n.Cleanup()
	for rounds := 1; ; rounds++ {
		prev := net.Clone() // Round consumes net
		out, st, err := eng.Round(context.Background(), net)
		if err != nil {
			t.Fatal(err)
		}
		net = out
		if !eng.opts.Cost.Improved(st.Before, st.After) {
			if eng.opts.Cost.Improved(st.After, st.Before) {
				net = prev
			}
			return net, rounds, eng.Degraded()
		}
	}
}

// Bounds of the networks FuzzOptimize decodes: few enough inputs that
// sim.Equal checks every assignment, few enough gates that one input runs
// all its optimizations in well under a second.
const (
	fuzzMaxPIs   = 12
	fuzzMaxGates = 48
)

// fuzzNetwork decodes fuzz bytes into a network. The first byte picks 1 to
// fuzzMaxPIs primary inputs. Each following 3-byte group adds one gate: the
// first byte selects AND or XOR (bit 0), complements either fanin (bits 1
// and 2) and marks the gate as a primary output (bit 3); the other two pick
// the fanins among all earlier literals. At most fuzzMaxGates groups are
// read, and the last literal is always an output.
func fuzzNetwork(data []byte) *xag.Network {
	n := xag.New()
	pis := 1
	if len(data) > 0 {
		pis += int(data[0]) % fuzzMaxPIs
		data = data[1:]
	}
	lits := make([]xag.Lit, 0, pis+fuzzMaxGates)
	for i := 0; i < pis; i++ {
		lits = append(lits, n.AddPI(""))
	}
	for g := 0; g < fuzzMaxGates && len(data) >= 3; g++ {
		op := data[0]
		a := lits[int(data[1])%len(lits)].NotIf(op&2 != 0)
		b := lits[int(data[2])%len(lits)].NotIf(op&4 != 0)
		data = data[3:]
		var l xag.Lit
		if op&1 == 0 {
			l = n.And(a, b)
		} else {
			l = n.Xor(a, b)
		}
		lits = append(lits, l)
		if op&8 != 0 {
			n.AddPO(l, "")
		}
	}
	n.AddPO(lits[len(lits)-1], "")
	return n
}

// FuzzOptimize runs Minimize end to end on decoded networks under every
// cost model at 1 and 4 workers, all against one database per model, and
// asserts that:
//   - the output is equivalent to the input, checked exhaustively;
//   - under mc, the AND count never rises, and under every model the
//     input never beats the output;
//   - the Bristol bytes are equal across worker counts;
//   - the Bristol bytes and the degradation counters equal those of
//     roundReference on the same database.
func FuzzOptimize(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 1, 0, 1, 0, 2, 3})
	// Full adder: a⊕b⊕c and maj(a, b, c) built from three ANDs.
	f.Add([]byte{2,
		1, 0, 1, // 3: a⊕b
		9, 3, 2, // 4: a⊕b⊕c (output)
		0, 0, 1, // 5: a∧b
		0, 2, 3, // 6: c∧(a⊕b)
		6, 5, 6, // 7: ¬5∧¬6
		0, 7, 7,
	})
	f.Add([]byte{11,
		0, 0, 1, 0, 2, 3, 0, 12, 13, 1, 14, 4, 6, 15, 5, 0, 16, 6,
		9, 17, 7, 0, 8, 9, 14, 19, 10, 1, 20, 11, 8, 21, 18, 0, 22, 23,
	})
	f.Add([]byte{7, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 8, 7, 8})
	models := []struct {
		name  string
		model Cost
	}{
		{"mc", cost.MC()},
		{"size", cost.Size()},
		{"depth", cost.Depth()},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzNetwork(data)
		for _, m := range models {
			db := mcdb.New(mcdb.Options{})
			var want []byte
			degraded := map[int]Degradation{}
			for _, workers := range []int{1, 4} {
				res := MinimizeMC(in, Options{Cost: m.model, Workers: workers, DB: db})
				if res.Err != nil {
					t.Fatalf("%s/workers=%d: %v", m.name, workers, res.Err)
				}
				if err := sim.Equal(in, res.Network, 0, 0); err != nil {
					t.Fatalf("%s/workers=%d: output not equivalent to input: %v", m.name, workers, err)
				}
				if m.name == "mc" && res.Final().And > res.Initial().And {
					t.Fatalf("%s/workers=%d: AND count rose from %d to %d",
						m.name, workers, res.Initial().And, res.Final().And)
				}
				if m.model.Improved(res.Final(), res.Initial()) {
					t.Fatalf("%s/workers=%d: input %+v beats output %+v",
						m.name, workers, res.Initial(), res.Final())
				}
				degraded[workers] = res.Degraded
				got := bristol(t, res.Network)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%s: workers=%d output differs from workers=1", m.name, workers)
				}
			}
			ref, _, refDeg := roundReference(t, in, Options{Cost: m.model, Workers: 1, DB: db})
			if !bytes.Equal(bristol(t, ref), want) {
				t.Fatalf("%s: Minimize output differs from the Engine.Round reference", m.name)
			}
			for workers, d := range degraded {
				if d != refDeg {
					t.Fatalf("%s/workers=%d: Minimize degradation %+v, Engine.Round reference %+v",
						m.name, workers, d, refDeg)
				}
			}
		}
	})
}
