package spare

import "testing"

// TestHelperRaisesOnWait checks that a panic in the helper's call reaches
// the goroutine that waits, that Join alone does not raise it, and that
// the Helper runs again afterwards without allocating.
func TestHelperRaisesOnWait(t *testing.T) {
	var h Helper
	calls := 0
	fail := true
	h.Bind(func() {
		calls++
		if fail {
			panic("helper")
		}
	})
	h.Start()
	h.Join()
	h.Start()
	got := func() (v any) {
		defer func() { v = recover() }()
		h.Wait()
		return nil
	}()
	if got != "helper" {
		t.Fatalf("Wait raised %v, want the helper's panic", got)
	}
	fail = false
	h.Start()
	h.Wait()
	if calls != 3 {
		t.Fatalf("%d calls ran, want 3", calls)
	}
	if n := testing.AllocsPerRun(100, func() { h.Start(); h.Wait() }); n > 0 {
		t.Fatalf("a start allocates %.1f per call", n)
	}
}
