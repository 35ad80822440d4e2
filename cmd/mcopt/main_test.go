package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/tt"
	"repro/internal/xag"
)

// fullAdderBristol renders a small valid circuit in Bristol fashion.
func fullAdderBristol(t *testing.T) string {
	t.Helper()
	n := xag.New()
	x, y, cin := n.AddPI("a"), n.AddPI("b"), n.AddPI("cin")
	ab := n.Xor(x, y)
	n.AddPO(n.Xor(ab, cin), "sum")
	n.AddPO(n.Or(n.And(x, y), n.And(cin, ab)), "cout")
	var buf bytes.Buffer
	if err := n.WriteBristol(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func runMcopt(args ...string) (code int, stdout, stderr string) {
	return runMcoptStdin("", args...)
}

func runMcoptStdin(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitUsage(t *testing.T) {
	cases := [][]string{
		{},                                     // neither -in nor -bench
		{"-bench", "no-such-benchmark"},        // unknown benchmark
		{"-in", "x.txt", "-bench", "adder-32"}, // mutually exclusive
		{"-no-such-flag"},                      // flag parse error
		{"-bench", "adder-32", "stray-arg"},    // positional arguments
		{"-bench", "adder-32", "-k", "9"},      // cut size out of range
		{"-bench", "adder-32", "-k", "1"},      // cut size out of range
		{"-bench", "adder-32", "-cuts", "0"},   // cut limit out of range
		{"-bench", "adder-32", "-rounds", "-1"},
		{"-bench", "adder-32", "-timeout", "-5s"},
		{"-bench", "adder-32", "-workers", "-2"}, // negative worker count
		{"-bench", "adder-32", "-cost", "area"},  // unknown cost model
		{"-bench", "adder-32", "-cost", "Depth"}, // names are case-sensitive
	}
	for _, args := range cases {
		if code, _, _ := runMcopt(args...); code != exitUsage {
			t.Errorf("args %v: exit %d, want %d", args, code, exitUsage)
		}
	}
}

func TestExitParse(t *testing.T) {
	code, _, stderr := runMcoptStdin("this is not a circuit\n", "-in", "-")
	if code != exitParse {
		t.Fatalf("garbage input: exit %d, want %d (stderr: %s)", code, exitParse, stderr)
	}
	if stderr == "" {
		t.Fatal("parse failure produced no diagnostic")
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("3 4\n1 1\n1 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runMcopt("-in", bad); code != exitParse {
		t.Fatalf("truncated file: exit %d, want %d", code, exitParse)
	}
}

func TestExitIOOnMissingFile(t *testing.T) {
	code, _, _ := runMcopt("-in", filepath.Join(t.TempDir(), "absent.txt"))
	if code != exitIO {
		t.Fatalf("missing file: exit %d, want %d", code, exitIO)
	}
}

func TestOptimizeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.txt")
	code, _, stderr := runMcoptStdin(fullAdderBristol(t), "-in", "-", "-out", out)
	if code != exitOK {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, err := xag.ReadBristol(f)
	if err != nil {
		t.Fatalf("output does not parse back: %v", err)
	}
	if net.NumAnds() != 1 {
		t.Fatalf("full adder optimized to %d ANDs, want 1", net.NumAnds())
	}
}

// TestDumpWritesInputUnoptimized: -dump must emit the loaded circuit
// byte-identically to what the input round-trips to, without rewriting.
func TestDumpWritesInputUnoptimized(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "dump.txt")
	code, _, stderr := runMcopt("-bench", "adder-32", "-dump", "-out", out)
	if code != exitOK {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	net, err := xag.ReadBristol(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("dump output does not parse back: %v", err)
	}
	// adder-32 unoptimized carries more than the optimal 32 ANDs; a dump
	// that secretly optimized would collapse it.
	if net.NumAnds() <= 32 {
		t.Fatalf("dump appears optimized: %d ANDs", net.NumAnds())
	}

	if code, _, _ := runMcopt("-bench", "adder-32", "-dump"); code != exitUsage {
		t.Fatalf("-dump without -out: exit %d, want %d", code, exitUsage)
	}
}

// TestCostFlagRuns: every valid -cost value runs end to end, and a depth run
// on an arithmetic benchmark reports a reduced AND depth in the summary.
func TestCostFlagRuns(t *testing.T) {
	for _, cost := range []string{"mc", "size", "depth"} {
		code, _, stderr := runMcopt("-bench", "adder-32", "-cost", cost, "-verify")
		if code != exitOK {
			t.Fatalf("-cost %s: exit %d (stderr: %s)", cost, code, stderr)
		}
		if !strings.Contains(stderr, "AND-depth") {
			t.Fatalf("-cost %s: summary lacks AND-depth: %s", cost, stderr)
		}
	}
}

func TestListExitsOK(t *testing.T) {
	code, stdout, _ := runMcopt("-list")
	if code != exitOK || !strings.Contains(stdout, "adder") {
		t.Fatalf("exit %d, stdout %q", code, stdout)
	}
}

func TestExitVerify(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// Complement every cut function: rewrites stay internally consistent but
	// wrong, so only the -verify miter catches them — and must exit 4.
	faultinject.Set(faultinject.PointCutFunction, func(p any) {
		f := p.(*tt.T)
		*f = f.Not()
	})
	code, _, stderr := runMcoptStdin(fullAdderBristol(t), "-in", "-", "-verify")
	if code != exitVerify {
		t.Fatalf("exit %d, want %d (stderr: %s)", code, exitVerify, stderr)
	}
	if !strings.Contains(stderr, "rolled back") {
		t.Fatalf("no rollback diagnostic: %s", stderr)
	}
}

func TestTimeoutKeepsPartialResult(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Set(faultinject.PointNode, faultinject.DelayHook(2e6)) // 2ms per node

	dir := t.TempDir()
	out := filepath.Join(dir, "out.txt")
	code, _, stderr := runMcopt("-bench", "adder-32", "-timeout", "50ms", "-verify", "-out", out)
	if code != exitOK {
		t.Fatalf("timed-out run: exit %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "stopped after") {
		t.Fatalf("no timeout diagnostic: %s", stderr)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("timed-out run wrote no output: %v", err)
	}
	defer f.Close()
	if _, err := xag.ReadBristol(f); err != nil {
		t.Fatalf("partial output does not parse: %v", err)
	}
}

// TestProfilingFlags: -cpuprofile/-memprofile/-trace write non-empty
// profiles around the optimization.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	tr := filepath.Join(dir, "trace.out")
	code, _, stderr := runMcopt("-bench", "adder-32",
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", tr)
	if code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem, tr} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s: empty profile", p)
		}
	}
}

func TestProfilingBadPath(t *testing.T) {
	code, _, stderr := runMcopt("-bench", "adder-32",
		"-cpuprofile", filepath.Join(t.TempDir(), "no", "dir", "cpu.out"))
	if code != exitIO {
		t.Fatalf("exit %d, want %d; stderr: %s", code, exitIO, stderr)
	}
}

// TestDBSaveAndReload persists the synthesis database from one run and
// reloads it in the next: the second run must produce the identical circuit,
// and the saved file must pass `mcdb verify` semantics (it reloads clean).
func TestDBSaveAndReload(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "mc.snap")
	out1 := filepath.Join(dir, "one.txt")
	out2 := filepath.Join(dir, "two.txt")

	code, _, errOut := runMcopt("-bench", "decoder", "-rounds", "1", "-db-save", dbPath, "-out", out1, "-v")
	if code != exitOK {
		t.Fatalf("save run: exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "db: saved") {
		t.Fatalf("save not reported: %s", errOut)
	}
	if stale, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(stale) != 0 {
		t.Fatalf("atomic save left temp files: %v", stale)
	}

	code, _, errOut = runMcopt("-bench", "decoder", "-rounds", "1", "-db", dbPath, "-out", out2, "-v")
	if code != exitOK {
		t.Fatalf("load run: exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "db: loaded") || strings.Contains(errOut, "quarantined)") && !strings.Contains(errOut, "(0 quarantined)") {
		t.Fatalf("load not clean: %s", errOut)
	}
	b1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("preloaded database changed the optimized circuit")
	}
}

func TestDBLoadMissingFileFails(t *testing.T) {
	code, _, _ := runMcopt("-bench", "decoder", "-rounds", "1",
		"-db", filepath.Join(t.TempDir(), "missing.snap"))
	if code != exitIO {
		t.Fatalf("exit %d, want %d", code, exitIO)
	}
}
