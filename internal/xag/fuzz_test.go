package xag

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadBristol exercises the parser on arbitrary input: it must never
// panic, and whenever it accepts a circuit, writing and re-reading it must
// preserve the function on a fixed stimulus.
func FuzzReadBristol(f *testing.F) {
	f.Add("3 6\n3 1 1 1\n1 1\n\n2 1 0 1 3 AND\n2 1 3 2 4 XOR\n1 1 4 5 EQW\n")
	f.Add("1 2\n1 1\n1 1\n\n1 1 0 1 INV\n")
	f.Add("1 3\n2 1 1\n1 1\n\n2 1 0 1 2 MAND\n")
	f.Add("2 4\n1 1\n1 2\n\n1 1 1 2 EQ\n1 1 0 3 EQW\n")
	f.Add("0 0\n0\n0\n")
	f.Add("garbage")
	// Seeds for the hardened paths: malformed integers, out-of-range wires,
	// gate-count mismatches, truncated and over-long files, and header
	// widths whose sum wraps around.
	f.Add("1 2\n1 0x10\n1 1\n\n1 1 0 1 INV\n")
	f.Add("1 2\n1 1\n1 1\n\n2 1 0 9 1 AND\n")
	f.Add("2 3\n1 1\n1 1\n\n1 1 0 1 INV\n")
	f.Add("1 3\n1 1\n1 1\n\n1 1 0 1 INV\n1 1 1 2 INV\n")
	f.Add("1 2\n1 -1\n1 1\n\n1 1 0 1 INV\n")
	f.Add("1 2\n1 1\n1 1\n\n1 1 0 1abc INV\n")
	f.Add("1 3\n3 9223372036854775807 9223372036854775807 4\n1 1\n\n2 1 0 1 2 AND\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		n, err := ReadBristol(strings.NewReader(src))
		if err != nil {
			return
		}
		if n.NumPIs() == 0 || n.NumPOs() == 0 || n.NumPIs() > 64 || n.NumNodes() > 1<<16 {
			return // degenerate interfaces do not round-trip meaningfully
		}
		var buf bytes.Buffer
		if err := n.WriteBristol(&buf); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		m, err := ReadBristol(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\n%s", err, buf.String())
		}
		in := make([]uint64, n.NumPIs())
		for i := range in {
			in[i] = 0xdeadbeefcafef00d * uint64(i+1)
		}
		wa, wb := n.Simulate(in), m.Simulate(in)
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("round trip changed PO %d", i)
			}
		}
	})
}
