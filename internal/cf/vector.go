package cf

import "sync/atomic"

// BitVector is a system-owned local bit vector in "protected processor
// storage" (§3.3.2). The owning system allocates it when connecting to
// a cache or list structure; the CF holds a reference and flips bits
// directly (an atomic store standing in for the coupling-link hardware
// signal), with no interrupt or software involvement on the target.
//
// For cache structures a set bit means "local copy valid"; for list
// structures a set bit means "monitored list went non-empty".
type BitVector struct {
	words []atomic.Uint64
	size  int

	// notify, when installed, observes every bit transition (and
	// ClearAll). A transport server registers a shadow vector with the
	// CF and forwards its flips over the client's notification
	// connection — the wire-level form of the link hardware signal.
	notify atomic.Pointer[func(bit int, set bool)]
}

// SetNotify installs fn, invoked after each observed bit transition
// with the bit index and its new state; ClearAll reports once as
// (-1, false). fn runs on the flipping command's goroutine while CF
// structure locks may be held, so it must not block and must not issue
// CF commands. A nil fn removes the hook.
func (v *BitVector) SetNotify(fn func(bit int, set bool)) {
	if fn == nil {
		v.notify.Store(nil)
		return
	}
	v.notify.Store(&fn)
}

func (v *BitVector) notifyFlip(bit int, set bool) {
	if fn := v.notify.Load(); fn != nil {
		(*fn)(bit, set)
	}
}

// NewBitVector allocates a vector with n bit positions.
func NewBitVector(n int) *BitVector {
	if n <= 0 {
		n = 1
	}
	return &BitVector{words: make([]atomic.Uint64, (n+63)/64), size: n}
}

// Len returns the number of bit positions.
func (v *BitVector) Len() int { return v.size }

// Test reports whether bit i is set. This is the emulation of the new
// CPU instruction the paper describes for interrogating local buffer
// validity without a CF access.
func (v *BitVector) Test(i int) bool {
	if i < 0 || i >= v.size {
		return false
	}
	return v.words[i/64].Load()&(1<<uint(i%64)) != 0
}

// Set sets bit i (CF-side on registration, or system-side on refresh).
func (v *BitVector) Set(i int) {
	if i < 0 || i >= v.size {
		return
	}
	w := &v.words[i/64]
	mask := uint64(1) << uint(i%64)
	for {
		old := w.Load()
		if old&mask != 0 {
			return
		}
		if w.CompareAndSwap(old, old|mask) {
			v.notifyFlip(i, true)
			return
		}
	}
}

// Clear clears bit i (the CF cross-invalidate / the system releasing a
// buffer).
func (v *BitVector) Clear(i int) {
	if i < 0 || i >= v.size {
		return
	}
	w := &v.words[i/64]
	mask := uint64(1) << uint(i%64)
	for {
		old := w.Load()
		if old&mask == 0 {
			return
		}
		if w.CompareAndSwap(old, old&^mask) {
			v.notifyFlip(i, false)
			return
		}
	}
}

// ClearAll clears every bit (connector cleanup).
func (v *BitVector) ClearAll() {
	for i := range v.words {
		v.words[i].Store(0)
	}
	v.notifyFlip(-1, false)
}

// Count returns the number of set bits (diagnostics).
func (v *BitVector) Count() int {
	n := 0
	for i := range v.words {
		w := v.words[i].Load()
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}
