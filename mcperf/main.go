// Command mcperf is the repository's benchmark. One invocation runs one
// workload for about --seconds seconds and prints every metric by name
// and unit; its last line is a JSON result object.
//
//	bash mcperf/run.sh --workload cold-small --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - cold-small: adder-64, sha-256-round, multiplier and voter under mc,
//     adder-64 and sha-256-round under depth, each from an empty database
//     (as mcopt without -db). Classification and synthesis dominate.
//   - warm-large: md5 and speck-64-96 under mc against one database that
//     set-up warmed with a full pass. Enumeration and commit dominate.
//   - serve-mix: a seeded catalogue of parameterized circuits sent as v1
//     JSON envelopes to an in-process server by two closed-loop clients;
//     the only workload through server, result cache and Bristol parsing.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run reports per-layer metrics, measured by timing the
// public calls into each layer and by reading the figures the engine,
// database and server already return. Every output is checked for
// correctness outside the timed region; a failure exits non-zero.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/mcdb"
	"repro/internal/metrics"
)

// defaultSeed is the seed a run uses when --seed is not given.
const defaultSeed = 1

// The process-wide part of set-up (the lazy classification tables and the
// generation of the workload's circuits) happens once per process, so it is
// timed in fresh child processes, probesPerGap of them, one after another,
// before the first pass and after every pass (and after a warm-up), and the
// median is reported. Spreading the probes over the run keeps a set-up of
// tens of milliseconds steady on a host whose speed drifts from second to
// second; a later change that moves work into set-up still shows.
const probesPerGap = 4

// probeSetup performs the process-wide set-up of the workload once, in
// this process, and returns its wall-clock seconds.
func probeSetup(cfg config) (float64, error) {
	t := time.Now()
	warmLazyTables()
	var err error
	switch cfg.workload {
	case "cold-small":
		_, err = buildLegs(coldSmallLegs)
	case "warm-large":
		_, err = buildLegs(warmLargeLegs)
	case "serve-mix":
		_, err = buildKeys(catalogue(cfg.seed))
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return time.Since(t).Seconds(), err
}

// prober collects set-up probes, each run in a fresh child process of this
// binary that the prober waits for.
type prober struct {
	cfg   config
	walls []float64
}

// take runs probesPerGap probes.
func (p *prober) take(ctx context.Context) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < probesPerGap; i++ {
		cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", p.cfg.workload, "--seed", fmt.Sprint(p.cfg.seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		var wall float64
		if _, err := fmt.Sscan(string(out), &wall); err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		p.walls = append(p.walls, wall)
	}
	return nil
}

// report records the probes' median and count and returns the median.
func (p *prober) report(rep *report) float64 {
	rep.extra("setup.process_s", median(p.walls), "s")
	rep.extra("setup.probes", float64(len(p.walls)), "count")
	return median(p.walls)
}

// runLimit bounds a whole run, leaving margin under the three minutes a
// run may take: an optimization still going then is interrupted and
// counted as failed.
const runLimit = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // report, span and determinism-record directory
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance identifies the host, toolchain and code a result came from.
type provenance struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         bool   `json:"trace"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	Source        string `json:"source_sha256"`
	EngineWorkers int    `json:"engine_workers"`
}

// report is everything one run measured. Metrics is what the result line
// carries; Extra holds the metrics that exist on this workload only and
// are printed but not part of the result line.
type report struct {
	Provenance provenance         `json:"provenance"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
	Extra      map[string]metric  `json:"extra,omitempty"`
	Latency    map[string]Summary `json:"latency_ms,omitempty"`
	Passes     []float64          `json:"passes_s"`
	Legs       []legRow           `json:"legs,omitempty"`
	SelfTimes  map[string]float64 `json:"self_times_s,omitempty"`
	Gates      map[string]string  `json:"determinism"`
	Spans      []Span             `json:"spans,omitempty"`
}

// legRow is one leg's per-program figures (median time over the passes).
type legRow struct {
	Leg    string  `json:"leg"`
	OptS   float64 `json:"opt_s"`
	And    int     `json:"and"`
	Rounds int     `json:"rounds"`
}

func (r *report) fail(err string) {
	r.Failed++
	r.Errors = append(r.Errors, err)
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) extra(name string, v float64, unit string) { r.Extra[name] = metric{v, unit} }

// gate records a value that must repeat exactly across passes and runs of
// the same code; a second, different value for the name is a failure.
func (r *report) gate(name string, v any) {
	s := fmt.Sprint(v)
	if old, ok := r.Gates[name]; ok && old != s {
		r.fail(fmt.Sprintf("determinism: %s was %s, now %s", name, old, s))
		return
	}
	r.Gates[name] = s
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("mcperf", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var cfg config
	var trace int
	var probe bool
	fset.StringVar(&cfg.workload, "workload", "", "cold-small | warm-large | serve-mix")
	fset.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	fset.IntVar(&cfg.seconds, "seconds", 20, "measuring time in seconds")
	fset.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fset.BoolVar(&probe, "setup-probe", false, "time one process-wide set-up of the workload in this process, print its seconds and exit")
	fset.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "mcperf"), "directory for reports, spans and determinism records")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if (trace != 0 && trace != 1) || cfg.seconds < 1 || fset.NArg() > 0 {
		fmt.Fprintln(stderr, "mcperf: --trace must be 0 or 1, --seconds at least 1, and no arguments")
		return 2
	}
	if probe {
		wall, err := probeSetup(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "mcperf: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%.9f\n", wall)
		return 0
	}
	digest, err := sourceDigest(".")
	if err != nil {
		fmt.Fprintf(stderr, "mcperf: hashing the sources: %v\n", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rep := &report{
		Provenance: provenance{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
			Commit: commit(), Source: digest, EngineWorkers: engineWorkers,
		},
		Metrics: map[string]metric{}, Extra: map[string]metric{}, Gates: map[string]string{},
	}
	switch cfg.workload {
	case "cold-small":
		err = runOpt(ctx, cfg, rep, coldSmallLegs, true)
	case "warm-large":
		err = runOpt(ctx, cfg, rep, warmLargeLegs, false)
	case "serve-mix":
		err = runServe(ctx, cfg, rep)
	default:
		fmt.Fprintf(stderr, "mcperf: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "mcperf: %v\n", err)
		return 1
	}
	if err := rep.checkRecord(cfg); err != nil {
		fmt.Fprintf(stderr, "mcperf: %v\n", err)
		return 1
	}
	if err := rep.write(cfg); err != nil {
		fmt.Fprintf(stderr, "mcperf: %v\n", err)
		return 1
	}
	rep.print(stdout)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// runOpt runs cold-small (fresh database per leg) or warm-large (one
// database, warmed in set-up).
func runOpt(ctx context.Context, cfg config, rep *report, specs []legSpec, cold bool) error {
	pr := &prober{cfg: cfg}
	if err := pr.take(ctx); err != nil {
		return err
	}
	warmLazyTables()
	legs, err := buildLegs(specs)
	if err != nil {
		return err
	}
	r := &optRunner{legs: legs, cold: cold, reg: metrics.NewRegistry(), seed: cfg.seed}
	var warm float64
	if !cold {
		t := time.Now()
		r.db = newDB(r.reg)
		_, outs, _ := r.pass(ctx, -1, nil)
		warm = time.Since(t).Seconds()
		rep.extra("setup.warmup_s", warm, "s")
		rep.checkLegs(outs)
		if err := pr.take(ctx); err != nil {
			return err
		}
	}

	var walls []float64
	var allOuts [][]legOutcome
	var alloc, gcs []float64
	onePass := func(i int) error {
		var m0, m1 runtime.MemStats
		runtime.GC() // every pass starts from a collected heap
		runtime.ReadMemStats(&m0)
		wall, outs, _ := r.pass(ctx, i, nil)
		runtime.ReadMemStats(&m1)
		walls = append(walls, wall.Seconds())
		alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		allOuts = append(allOuts, outs)
		rep.checkLegs(outs)
		return pr.take(ctx)
	}
	for i, start := 0, time.Now(); morePasses(cfg, i, start); i++ {
		if err := onePass(i); err != nil {
			return err
		}
	}
	rep.Passes = walls
	rep.Legs = legRows(legs, allOuts)
	setup := pr.report(rep) + warm
	if !cfg.trace {
		rep.set("opt_s", median(walls), "s")
		rep.set("and_total", float64(andTotal(allOuts[0])), "count")
		rep.set("setup_s", setup, "s")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		rep.extra("error_rate", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
		return nil
	}

	// Traced: one more pass, recorded; the untraced pass above is its
	// baseline for the trace overhead and the per-pass Go runtime figures.
	// On a cold database every round classifies functions never seen
	// before, so the prepass needs the network each round starts from,
	// computed here against a scratch database. On a warm database the
	// input's functions stand for the rest: all of them are cache hits.
	for i := range r.legs {
		if cold {
			if r.legs[i].rounds, err = roundNetworks(ctx, r.legs[i], newDB(metrics.NewRegistry())); err != nil {
				return err
			}
		}
	}
	rec := newRecorder()
	steps0 := stepsOf(r.reg)
	_, outs, root := r.pass(ctx, 1, rec)
	rep.checkLegs(outs)
	steps1 := stepsOf(r.reg)

	var traced float64
	for _, o := range outs {
		traced += o.wall.Seconds()
	}
	rep.Spans = rec.Spans()
	self := selfTimes(rep.Spans, root)
	rep.setSelfTimes(self)
	rep.setLayers(self, rep.Spans, outs)
	rep.set("spectral.searches", float64(steps1.count-steps0.count), "count")
	rep.set("spectral.steps", steps1.sum-steps0.sum, "count")
	for _, n := range []string{"rescache.hits", "rescache.misses", "rescache.coalesced", "rescache.evictions", "server.rejected"} {
		rep.set(n, 0, "count") // no server or result cache on this workload
	}
	rep.set("unaccounted_s", (self["pass"] + self["leg"]).Seconds(), "s")
	rep.set("go.alloc_mb", alloc[0], "MB")
	rep.set("go.gc_cycles", gcs[0], "count")
	rep.set("trace.overhead_ratio", traced/walls[0], "ratio")
	rep.extra("trace.opt_s", traced, "s")
	rep.extra("untraced.opt_s", walls[0], "s")
	return nil
}

// minPasses is the fewest passes an untraced run makes, however long they
// take, so that its figures are medians; a traced run makes one.
const minPasses = 3

// morePasses reports whether a run that has made done passes since start
// makes another: it measures for the configured seconds, and for at least
// minPasses passes.
func morePasses(cfg config, done int, start time.Time) bool {
	if cfg.trace {
		return done == 0
	}
	return done < minPasses || time.Since(start) < time.Duration(cfg.seconds)*time.Second
}

// checkLegs counts the legs of one pass and gates their outcomes.
func (r *report) checkLegs(outs []legOutcome) {
	for _, o := range outs {
		r.Attempted++
		if o.err != nil {
			r.fail(o.err.Error())
			continue
		}
		r.gate("mcc.and."+o.name, o.andAfter)
		r.gate("core.rounds."+o.name, o.rounds)
		r.gate("core.replacements."+o.name, o.repl)
		r.gate("output."+o.name, o.hash)
	}
	r.gate("and_total", andTotal(outs))
}

func andTotal(outs []legOutcome) int {
	n := 0
	for _, o := range outs {
		n += o.andAfter
	}
	return n
}

func legRows(legs []leg, passes [][]legOutcome) []legRow {
	rows := make([]legRow, len(legs))
	for i, l := range legs {
		var ts []float64
		for _, outs := range passes {
			ts = append(ts, outs[i].wall.Seconds())
		}
		last := passes[len(passes)-1][i]
		rows[i] = legRow{Leg: l.name, OptS: median(ts), And: last.andAfter, Rounds: last.rounds}
	}
	return rows
}

// setSelfTimes keeps the self times of the traced pass, which together
// (unaccounted time included) add up to the pass.
func (r *report) setSelfTimes(self map[string]time.Duration) {
	r.SelfTimes = make(map[string]float64, len(self))
	for n, d := range self {
		r.SelfTimes[n] = d.Seconds()
	}
}

// setLayers derives the per-layer metrics of a traced run from the self
// times of its spans and the figures its legs returned.
func (r *report) setLayers(self map[string]time.Duration, spans []Span, legs []legOutcome) {
	r.set("cut.enumerate_s", self["cut.enumerate"].Seconds(), "s")
	r.set("spectral.classify_s", self["spectral.classify"].Seconds(), "s")
	r.set("mcdb.synth_s", self["mcdb.synth"].Seconds(), "s")
	r.set("core.classify_s", self["core.classify"].Seconds(), "s")
	r.set("core.commit_s", self["core.commit"].Seconds(), "s")
	r.set("core.other_s", (self["round"] + self["core.minimize"]).Seconds(), "s")
	r.set("sim.verify_s", self["sim.verify"].Seconds(), "s")
	r.set("trace.enumerate_s", self["trace.enumerate"].Seconds(), "s")
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
	}
	for _, n := range []string{"parse", "hash", "render"} {
		name := "xag." + n
		r.set(name+"_s", ratio(self[name].Seconds(), float64(count[name])), "s")
	}

	var gates, enumerated, classified, rounds, repl, skipped, rejected, panics int
	var db mcdb.Stats
	var pc prepassCounts
	for _, o := range legs {
		for _, rd := range o.res.Rounds {
			gates += rd.Gates
			enumerated += rd.Enumerated
			classified += rd.Classified
		}
		rounds += o.rounds
		repl += o.repl
		skipped += o.res.Degraded.IncompleteClassifications
		rejected += o.res.Degraded.RejectedRewrites
		panics += o.res.Degraded.RecoveredPanics
		db = addStats(db, o.dbDelta)
		pc.add(o.pc)
	}
	r.set("cut.gates_enumerated", float64(enumerated), "count")
	r.set("cut.reuse_ratio", 1-ratio(float64(enumerated), float64(gates)), "ratio")
	r.set("core.rounds", float64(rounds), "count")
	r.set("core.replacements", float64(repl), "count")
	r.set("core.classified_ratio", ratio(float64(classified), float64(gates)), "ratio")
	r.set("core.skipped_incomplete", float64(skipped), "count")
	r.set("core.rejected_rewrites", float64(rejected), "count")
	r.set("core.recovered_panics", float64(panics), "count")
	for _, n := range []int{5, 6} {
		r.set(fmt.Sprintf("spectral.incomplete_rate.n%d", n), ratio(float64(pc.incomplete[n]), float64(pc.total[n])), "ratio")
	}
	synth := db.ExactSyntheses + db.BoundedExact + db.DavioFallbacks
	r.set("mcdb.exact", float64(db.ExactSyntheses), "count")
	r.set("mcdb.bounded_exact", float64(db.BoundedExact), "count")
	r.set("mcdb.davio", float64(db.DavioFallbacks), "count")
	r.set("mcdb.class_hit_rate", ratio(float64(db.ClassCacheHits), float64(db.ClassCacheHits+db.Classified)), "ratio")
	r.set("mcdb.entry_hit_rate", ratio(float64(db.EntryCacheHits), float64(db.EntryCacheHits+synth)), "ratio")
}

// peakRSSMB is the peak resident set of the process so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit is the VCS revision the binary was built from, when the build
// stamped one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// hidden directories: it names the code a result came from even in a
// checkout without version control.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go")) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// record is the determinism record of one workload and seed: the gated
// values a run of the code with this source digest produced.
type record struct {
	Source string            `json:"source_sha256"`
	Gates  map[string]string `json:"gates"`
}

// checkRecord compares the run's gated values with the record an earlier
// run of the same code left, and leaves one if there is none. Any
// difference is a failure: these values are deterministic.
func (r *report) checkRecord(cfg config) error {
	path := filepath.Join(cfg.out, "determinism", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	var old record
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(b, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if old.Source == r.Provenance.Source {
		for k, v := range r.Gates {
			if ov, ok := old.Gates[k]; ok && ov != v {
				r.fail(fmt.Sprintf("determinism: %s is %s, an earlier run of this code got %s", k, v, ov))
			}
		}
		for k, v := range old.Gates {
			if _, ok := r.Gates[k]; !ok {
				r.Gates[k] = v
			}
		}
	}
	if r.Failed > 0 {
		return nil // keep the record of the passing run
	}
	return writeJSON(path, record{Source: r.Provenance.Source, Gates: r.Gates})
}

// write saves the full report (spans included) next to the records.
func (r *report) write(cfg config) error {
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return writeJSON(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)), r)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes the human-readable report and, last, the result line.
func (r *report) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "mcperf workload=%s seed=%d seconds=%d trace=%t gomaxprocs=%d num_cpu=%d go=%s commit=%s source=%s engine_workers=%d\n",
		p.Workload, p.Seed, p.Seconds, p.Trace, p.GOMAXPROCS, p.NumCPU, p.GoVersion, p.Commit, p.Source[:12], p.EngineWorkers)
	for i, s := range r.Passes {
		fmt.Fprintf(w, "pass %d: %.4f s\n", i+1, s)
	}
	for _, l := range r.Legs {
		fmt.Fprintf(w, "%-32s mcc.opt_s %.4f s  mcc.and %d  rounds %d\n", l.Leg, l.OptS, l.And, l.Rounds)
	}
	printMetrics(w, r.Metrics)
	printMetrics(w, r.Extra)
	names := make([]string, 0, len(r.Latency))
	for n := range r.Latency {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Latency[n]
		fmt.Fprintf(w, "%-32s p50 %.4f ms  p%g %.4f ms  n=%d%s\n", n, s.P50, s.TailAt*100, s.Tail, s.N, map[bool]string{true: " (too few samples for a tail)"}[s.Thin])
	}
	if r.SelfTimes != nil {
		var sum float64
		for _, v := range r.SelfTimes {
			sum += v
		}
		fmt.Fprintf(w, "self times of the traced pass sum to %.4f s\n", sum)
		m := func(n string) float64 { return r.Metrics[n].Value }
		engine := m("cut.enumerate_s") + m("spectral.classify_s") + m("mcdb.synth_s") +
			m("core.classify_s") + m("core.commit_s") + m("core.other_s")
		fmt.Fprintf(w, "engine time %.4f s: spectral.classify+mcdb.synth %.1f%%, core.commit+cut.enumerate %.1f%%\n", engine,
			100*ratio(m("spectral.classify_s")+m("mcdb.synth_s"), engine), 100*ratio(m("core.commit_s")+m("cut.enumerate_s"), engine))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "NOTE %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics}
	b, _ := json.Marshal(out) // plain numbers and strings always marshal
	fmt.Fprintf(w, "%s\n", b)
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
