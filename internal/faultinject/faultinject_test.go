package faultinject

import (
	"testing"
	"time"
)

func TestInjectWithoutHooksIsNoop(t *testing.T) {
	t.Cleanup(Reset)
	Inject("nonexistent", nil) // must not panic or count
	if Fired("nonexistent") != 0 {
		t.Fatal("fired counter advanced without a hook")
	}
}

func TestSetInjectClear(t *testing.T) {
	t.Cleanup(Reset)
	got := 0
	if Enabled() {
		t.Fatal("Enabled with no hook installed")
	}
	Set("p", func(payload any) { got = payload.(int) })
	if !Enabled() {
		t.Fatal("not Enabled with a hook installed")
	}
	Inject("p", 42)
	if got != 42 {
		t.Fatalf("hook saw %d, want 42", got)
	}
	if Fired("p") != 1 {
		t.Fatalf("Fired = %d, want 1", Fired("p"))
	}
	Clear("p")
	Inject("p", 7)
	if got != 42 || Fired("p") != 1 || Enabled() {
		t.Fatal("hook ran or stayed enabled after Clear")
	}
	Clear("p") // double clear is fine
}

func TestHooksAreIndependentPerPoint(t *testing.T) {
	t.Cleanup(Reset)
	var a, b int
	Set("a", func(any) { a++ })
	Set("b", func(any) { b++ })
	Inject("a", nil)
	Inject("a", nil)
	Inject("b", nil)
	if a != 2 || b != 1 {
		t.Fatalf("a=%d b=%d, want 2 and 1", a, b)
	}
	Clear("a")
	Inject("a", nil)
	Inject("b", nil)
	if a != 2 || b != 2 {
		t.Fatal("clearing one point affected the other")
	}
}

func TestPayloadMutation(t *testing.T) {
	t.Cleanup(Reset)
	Set("mut", func(p any) { *p.(*int) ^= 1 })
	v := 6
	Inject("mut", &v)
	if v != 7 {
		t.Fatalf("payload not mutated: %d", v)
	}
}

func TestReset(t *testing.T) {
	Set("x", func(any) {})
	Inject("x", nil)
	Reset()
	if Fired("x") != 0 {
		t.Fatal("Reset kept fired counters")
	}
	ran := false
	func() {
		defer func() { _ = recover() }()
		Inject("x", nil)
		ran = true
	}()
	if !ran || Fired("x") != 0 {
		t.Fatal("Reset kept hooks")
	}
}

func TestPanicHook(t *testing.T) {
	t.Cleanup(Reset)
	Set("boom", PanicHook("kaput"))
	defer func() {
		if r := recover(); r != "kaput" {
			t.Fatalf("recovered %v, want kaput", r)
		}
	}()
	Inject("boom", nil)
	t.Fatal("PanicHook did not panic")
}

func TestDelayHook(t *testing.T) {
	t.Cleanup(Reset)
	Set("slow", DelayHook(10*time.Millisecond))
	start := time.Now()
	Inject("slow", nil)
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("DelayHook returned after %v", d)
	}
}

func TestOnce(t *testing.T) {
	t.Cleanup(Reset)
	n := 0
	Set("once", Once(func(any) { n++ }))
	Inject("once", nil)
	Inject("once", nil)
	Inject("once", nil)
	if n != 1 {
		t.Fatalf("Once hook ran %d times", n)
	}
	if Fired("once") != 3 {
		t.Fatalf("Fired = %d, want 3 (wrapper still invoked)", Fired("once"))
	}
}
