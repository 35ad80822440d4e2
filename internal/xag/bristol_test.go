package xag

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestBristolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		n := New()
		lits := make([]Lit, 0, 40)
		for i := 0; i < 6; i++ {
			lits = append(lits, n.AddPI(""))
		}
		for i := 0; i < 40; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			if rng.Intn(2) == 0 {
				lits = append(lits, n.And(a, b))
			} else {
				lits = append(lits, n.Xor(a, b))
			}
		}
		for i := 0; i < 3; i++ {
			n.AddPO(lits[len(lits)-1-i].NotIf(rng.Intn(2) == 0), "")
		}

		var buf bytes.Buffer
		if err := n.WriteBristol(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := ReadBristol(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: read: %v\n%s", trial, err, buf.String())
		}
		if m.NumPIs() != n.NumPIs() || m.NumPOs() != n.NumPOs() {
			t.Fatalf("interface changed: %d/%d PIs, %d/%d POs",
				n.NumPIs(), m.NumPIs(), n.NumPOs(), m.NumPOs())
		}
		in := make([]uint64, n.NumPIs())
		for i := range in {
			in[i] = rng.Uint64()
		}
		wa, wb := n.Simulate(in), m.Simulate(in)
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("trial %d: PO %d differs after round trip", trial, i)
			}
		}
		// Gate counts must be preserved up to INV materialization.
		ca, cb := n.CountGates(), m.CountGates()
		if cb.And != ca.And {
			t.Fatalf("AND count changed across round trip: %d -> %d", ca.And, cb.And)
		}
	}
}

func TestBristolKnownCircuit(t *testing.T) {
	// A hand-written two-gate circuit: out = (a AND b) XOR c.
	src := `3 6
3 1 1 1
1 1

2 1 0 1 3 AND
2 1 3 2 4 XOR
1 1 4 5 EQW
`
	n, err := ReadBristol(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumPIs() != 3 || n.NumPOs() != 1 {
		t.Fatalf("interface: %d PIs %d POs", n.NumPIs(), n.NumPOs())
	}
	for m := 0; m < 8; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4}
		want := (in[0] && in[1]) != in[2]
		if got := n.EvalBools(in)[0]; got != want {
			t.Fatalf("eval(%03b) = %v, want %v", m, got, want)
		}
	}
}

func TestBristolInvAndConst(t *testing.T) {
	src := `5 7
2 1 1
1 2

1 1 0 2 INV
1 1 1 3 EQ
2 1 2 1 4 AND
2 1 4 3 5 XOR
1 1 0 6 EQW
`
	// wire2 = ¬a; wire3 = const1; wire4 = ¬a ∧ b; wire5 = wire4 ⊕ 1;
	// outputs: wire5, wire6 = a.
	n, err := ReadBristol(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		a, b := m&1 == 1, m&2 == 2
		out := n.EvalBools([]bool{a, b})
		want0 := !(!a && b)
		if out[0] != want0 || out[1] != a {
			t.Fatalf("eval(%02b) = %v", m, out)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	n := New()
	a, b := n.AddPI("a"), n.AddPI("b")
	n.AddPO(n.And(a, b.Not()), "y")
	var buf bytes.Buffer
	if err := n.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"digraph xag", "shape=box", "style=dashed", "invtriangle"} {
		if !strings.Contains(s, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, s)
		}
	}
}

// TestBristolMalformedInputs pins the hardened parser: every corrupted file
// must yield its descriptive error — never a panic, never a silently wrong
// circuit. The messages reach HTTP clients as invalid_network error bodies,
// so each is pinned byte for byte.
func TestBristolMalformedInputs(t *testing.T) {
	valid := "2 5\n3 1 1 1\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n"
	if _, err := ReadBristol(strings.NewReader(valid)); err != nil {
		t.Fatalf("baseline circuit rejected: %v", err)
	}
	cases := []struct {
		name, src, msg string
	}{
		{"empty", "",
			"xag: bristol header: unexpected EOF"},
		{"header one field", "3\n",
			"xag: bristol header needs 2 fields, got 1"},
		{"header non-integer", "x 5\n3 1 1 1\n1 1\n",
			`xag: bristol header: bad integer "x"`},
		{"header hex wires", "2 0x5\n3 1 1 1\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n",
			`xag: bristol header: bad integer "0x5"`},
		{"header trailing junk", "2 5abc\n3 1 1 1\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n",
			`xag: bristol header: bad integer "5abc"`},
		{"negative gate count", "-1 5\n3 1 1 1\n1 1\n",
			"xag: bristol header: implausible sizes (-1 gates, 5 wires)"},
		{"zero wires", "0 0\n0\n0\n",
			"xag: bristol header: implausible sizes (0 gates, 0 wires)"},
		{"input count mismatch", "2 5\n3 1 1\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n",
			"xag: bristol input header arity mismatch"},
		{"input width non-integer", "2 5\n3 1 q 1\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n",
			`xag: bristol input width: bad integer "q"`},
		{"input width negative", "2 5\n3 1 -1 1\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n",
			"xag: bristol input header: negative width -1"},
		{"inputs exceed wires", "2 5\n1 99\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n",
			"xag: bristol header: 99 inputs / 1 outputs exceed 5 wires"},
		{"outputs exceed wires", "2 5\n3 1 1 1\n1 99\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n",
			"xag: bristol header: 3 inputs / 99 outputs exceed 5 wires"},
		{"truncated after header", "2 5\n3 1 1 1\n1 1\n",
			"xag: bristol gate 0: unexpected EOF"},
		{"truncated mid gates", "2 5\n3 1 1 1\n1 1\n\n2 1 0 1 3 AND\n",
			"xag: bristol gate 1: unexpected EOF"},
		{"trailing extra gate", "2 5\n3 1 1 1\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n2 1 0 1 3 AND\n",
			`xag: bristol: trailing data "2 1 0 1 3 AND" after 2 declared gates`},
		{"gate wire out of range", "2 5\n3 1 1 1\n1 1\n\n2 1 0 99 3 AND\n2 1 3 2 4 XOR\n",
			"xag: bristol gate 0: undefined wire 99"},
		{"gate output out of range", "2 5\n3 1 1 1\n1 1\n\n2 1 0 1 99 AND\n2 1 3 2 4 XOR\n",
			"xag: bristol gate 0: output wire 99 out of range"},
		{"gate reads undefined wire", "2 5\n3 1 1 1\n1 1\n\n2 1 0 4 3 AND\n2 1 3 2 4 XOR\n",
			"xag: bristol gate 0: undefined wire 4"},
		{"gate wire non-integer", "2 5\n3 1 1 1\n1 1\n\n2 1 0 one 3 AND\n2 1 3 2 4 XOR\n",
			`xag: bristol gate 0 input: bad integer "one"`},
		{"gate arity non-integer", "2 5\n3 1 1 1\n1 1\n\n2x 1 0 1 3 AND\n2 1 3 2 4 XOR\n",
			`xag: bristol gate 0 arity: bad integer "2x"`},
		{"gate field count", "2 5\n3 1 1 1\n1 1\n\n2 1 0 1 AND\n2 1 3 2 4 XOR\n",
			"xag: bristol gate 0: field count"},
		{"unknown op", "2 5\n3 1 1 1\n1 1\n\n2 1 0 1 3 NAND\n2 1 3 2 4 XOR\n",
			`xag: bristol gate 0: unknown op "NAND"`},
		{"xor arity", "2 5\n3 1 1 1\n1 1\n\n1 1 0 3 AND\n2 1 3 2 4 XOR\n",
			"xag: bristol gate 0: AND needs 2 input(s) and 1 output"},
		{"eq constant out of range", "1 2\n1 1\n1 1\n\n1 1 2 1 EQ\n",
			"xag: bristol gate 0: EQ constant must be 0 or 1"},
		{"mand arity mismatch", "1 3\n2 1 1\n1 1\n\n3 1 0 1 0 2 MAND\n",
			"xag: bristol gate 0: MAND arity mismatch"},
		{"output wire undefined", "1 9\n3 1 1 1\n1 1\n\n2 1 0 1 3 AND\n",
			"xag: bristol output wire 8 undefined"},
		{"gate output collides with primary input", "2 5\n3 1 1 1\n1 1\n\n2 1 0 1 2 AND\n2 1 2 1 4 XOR\n",
			"xag: bristol gate 0: output wire 2 collides with primary input 2"},
		{"gate output redefines gate wire", "3 5\n2 1 1\n1 1\n\n2 1 0 1 2 AND\n2 1 0 1 2 XOR\n2 1 2 1 4 XOR\n",
			"xag: bristol gate 1: output wire 2 already defined"},
		{"mand output collides with primary input", "1 4\n2 1 1\n1 1\n\n4 2 0 1 0 1 1 3 MAND\n",
			"xag: bristol gate 0: output wire 1 collides with primary input 1"},
		{"eqw output collides with primary input", "2 4\n2 1 1\n1 1\n\n1 1 0 1 EQW\n2 1 1 0 3 AND\n",
			"xag: bristol gate 0: output wire 1 collides with primary input 1"},
		{"gate output non-integer", "2 5\n3 1 1 1\n1 1\n\n2 1 0 1 x3 AND\n2 1 3 2 4 XOR\n",
			`xag: bristol gate 0 output: bad integer "x3"`},
		{"gate output arity non-integer", "2 5\n3 1 1 1\n1 1\n\n2 1x 0 1 3 AND\n2 1 3 2 4 XOR\n",
			`xag: bristol gate 0 arity: bad integer "1x"`},
		// The two maximal widths wrap an int sum around to 2 inputs, which
		// once passed the wire-count check as a 2-PI circuit.
		{"input widths overflow", "1 3\n3 9223372036854775807 9223372036854775807 4\n1 1\n\n2 1 0 1 2 AND\n",
			"xag: bristol header: input widths exceed 3 wires"},
		{"output widths overflow", "1 3\n2 1 1\n2 9223372036854775807 9223372036854775807\n\n2 1 0 1 2 AND\n",
			"xag: bristol header: output widths exceed 3 wires"},
	}
	for _, tc := range cases {
		net, err := ReadBristol(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("%s: accepted malformed input (got %d nodes)", tc.name, net.NumNodes())
			continue
		}
		if err.Error() != tc.msg {
			t.Errorf("%s: error %q, want %q", tc.name, err.Error(), tc.msg)
		}
	}
}

// TestReadBristolAllocs pins the parser's allocation to what its input
// costs: adder-8's 1,159-byte netlist once paid for a 1 MiB scanner buffer
// and a formatted error context per integer field.
func TestReadBristolAllocs(t *testing.T) {
	src, err := os.ReadFile("testdata/adder8.bristol")
	if err != nil {
		t.Fatal(err)
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := ReadBristol(bytes.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 64<<10 {
		t.Fatalf("ReadBristol allocates %d bytes per call on adder-8, want under 64 KiB", perCall)
	}
}
