// Package faultinject provides a process-wide fault-injection registry used
// to test the optimizer's resilience guarantees. Production code declares
// named injection points (Inject calls with a mutable payload); tests
// install hooks that corrupt the payload, panic, or delay at those points,
// and then assert that the pipeline either rejects the faulty result or
// reports a structured error — never a functionally wrong network.
//
// With no hooks installed, Inject is a single atomic load and adds no
// measurable overhead, so the instrumentation stays in release builds.
//
// The registry is safe for concurrent Set/Clear/Inject. Hooks run under the
// registry lock, so a hook installed from a test needs no synchronization of
// its own even when the instrumented pipeline fires it from multiple worker
// goroutines (the parallel rewriting engine does exactly that). A hook is
// still allowed to panic by design: the lock is released on the way out of
// the panic.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injection points instrumented in the pipeline. Payload types are
// documented per point; hooks may mutate the payload in place.
const (
	// PointCutFunction fires in core for every cut function about to be
	// classified and rewritten. Payload: *tt.T — flipping bits simulates a
	// truth-table computation bug (caught only by the end-of-round miter,
	// because the rewrite is internally consistent with the corrupted table).
	PointCutFunction = "core/cut-function"

	// PointDBEntry fires in mcdb.Lookup for every entry returned to the
	// rewriter. Payload: *mcdb.Entry (as any) — corrupting steps or output
	// mask simulates database corruption (caught by the per-rewrite
	// truth-table check).
	PointDBEntry = "mcdb/lookup-entry"

	// PointNode fires in core once per node considered for rewriting.
	// Payload: int node id — panicking or delaying here exercises the
	// per-node recovery and cancellation paths.
	PointNode = "core/node"

	// PointSnapshotWrite fires in mcdb once per entry record written to a
	// snapshot temp file, after the record's bytes hit the file. Payload:
	// int record index — crashing here leaves a torn temp file that the
	// recovery path must ignore.
	PointSnapshotWrite = "mcdb/snapshot-write"

	// PointSnapshotRename fires in mcdb after the snapshot temp file is
	// fsynced and immediately before the atomic rename. Payload: string
	// target path — crashing here proves the old snapshot + journal pair
	// stays authoritative until the rename lands.
	PointSnapshotRename = "mcdb/snapshot-rename"

	// PointJournalAppend fires in mcdb midway through writing one journal
	// record (after the first half of the record's bytes). Payload: int
	// bytes written so far — crashing here produces exactly the torn tail
	// the journal replay must tolerate.
	PointJournalAppend = "mcdb/journal-append"

	// PointServerRequest fires in the mcserved worker once per optimize
	// request, after slot acquisition and before the engine starts.
	// Payload: nil — panicking here exercises the per-request isolation
	// (the request gets a 500, the daemon keeps serving).
	PointServerRequest = "server/request"

	// PointRefineModel fires in the SAT refiner for every satisfying model
	// about to be decoded into a circuit. Payload: []bool, the model —
	// mutating it corrupts the decoded circuit and proves the refiner's
	// validation gate quarantines it instead of admitting it.
	PointRefineModel = "mcdb/refine-model"
)

var (
	mu     sync.Mutex
	hooks  = make(map[string]func(any))
	fired  = make(map[string]int)
	active atomic.Int32
)

// Set installs hook at the given injection point, replacing any previous
// hook there.
func Set(point string, hook func(payload any)) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := hooks[point]; !ok {
		active.Add(1)
	}
	hooks[point] = hook
}

// Clear removes the hook at the given point, if any.
func Clear(point string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := hooks[point]; ok {
		delete(hooks, point)
		active.Add(-1)
	}
}

// Reset removes all hooks and zeroes the fired counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = make(map[string]func(any))
	fired = make(map[string]int)
	active.Store(0)
}

// Fired reports how many times a hook ran at the given point since the last
// Reset.
func Fired(point string) int {
	mu.Lock()
	defer mu.Unlock()
	return fired[point]
}

// Inject runs the hook installed at point, if any, passing it the payload.
// Instrumented code calls this at interesting places; with no hooks
// installed it returns after one atomic load.
func Inject(point string, payload any) {
	if active.Load() == 0 {
		return
	}
	mu.Lock()
	defer mu.Unlock() // released even when the hook panics by design
	h := hooks[point]
	if h == nil {
		return
	}
	fired[point]++
	// Under the lock: concurrent injection sites (the parallel engine's
	// workers) must not race on a test hook's captured state. Hooks must not
	// call back into the registry.
	h(payload)
}

// PanicHook returns a hook that panics with v.
func PanicHook(v any) func(any) {
	return func(any) { panic(v) }
}

// DelayHook returns a hook that sleeps for d.
func DelayHook(d time.Duration) func(any) {
	return func(any) { time.Sleep(d) }
}

// Once wraps a hook so that only its first invocation runs. Hooks execute
// under the registry lock, so the wrapper needs no synchronization of its
// own even on concurrent pipelines.
func Once(h func(any)) func(any) {
	done := false
	return func(p any) {
		if !done {
			done = true
			h(p)
		}
	}
}

// OnNth wraps a hook so that only its nth invocation (1-based) runs. Like
// Once, the counter needs no synchronization because hooks execute under the
// registry lock.
func OnNth(n int, h func(any)) func(any) {
	count := 0
	return func(p any) {
		count++
		if count == n {
			h(p)
		}
	}
}

// CrashEnv is the environment variable InstallCrashFromEnv reads. Its value
// is "point" or "point:n": at the nth firing of the named injection point
// (default 1) the process SIGKILLs itself — no deferred functions, no
// flushes, exactly the state a power cut or `kill -9` leaves behind.
const CrashEnv = "FAULTINJECT_CRASH"

// InstallCrashFromEnv arms the crash point described by the FAULTINJECT_CRASH
// environment variable, if set. It returns the armed point name (empty when
// the variable is unset) so callers can log what will kill them. A malformed
// value is an error rather than a silently unarmed crash, because a crash
// test that never crashes reports false confidence.
func InstallCrashFromEnv() (string, error) {
	v := os.Getenv(CrashEnv)
	if v == "" {
		return "", nil
	}
	point, n := v, 1
	if i := strings.LastIndexByte(v, ':'); i >= 0 {
		point = v[:i]
		parsed, err := strconv.Atoi(v[i+1:])
		if err != nil || parsed < 1 {
			return "", fmt.Errorf("faultinject: %s=%q: firing count must be a positive integer", CrashEnv, v)
		}
		n = parsed
	}
	if point == "" {
		return "", fmt.Errorf("faultinject: %s=%q: empty point name", CrashEnv, v)
	}
	Set(point, OnNth(n, func(any) { crashNow() }))
	return point, nil
}
