// Package spare runs the later part of a sweep split at a start time, a
// CoreTime build's (package vct) or an aggregate count's (package enum),
// on a second goroutine: Helper.
package spare

import "sync"

// Helper runs one function on a goroutine of its own, again and again,
// and hands a panic in it back to the goroutine that waits for it. Its
// functions are bound once by Bind, so a start allocates nothing. A
// Helper runs one call at a time and must not be copied after Bind.
type Helper struct {
	fn, start func()
	done      sync.WaitGroup
	panicked  any
}

// Bind sets the function Start runs.
func (h *Helper) Bind(fn func()) { h.fn, h.start = fn, h.run }

// Start runs the bound function on a new goroutine.
func (h *Helper) Start() {
	h.done.Add(1)
	go h.start()
}

func (h *Helper) run() {
	defer h.done.Done()
	defer func() { h.panicked = recover() }()
	h.fn()
}

// Join waits for the started call to end. Deferred right after Start, it
// keeps every path, a panic on the caller's own goroutine included, from
// returning while the helper still runs.
func (h *Helper) Join() { h.done.Wait() }

// Wait is Join, then raises again on the calling goroutine a panic the
// call recovered.
func (h *Helper) Wait() {
	h.done.Wait()
	if p := h.panicked; p != nil {
		h.panicked = nil
		panic(p)
	}
}
