package incr

import "sync/atomic"

// disabled flips the package-wide default from incremental matching back
// to unconditional full evaluation. It is consulted by qss.NewService and
// trigger.NewManager, so services constructed after SetEnabled(false)
// evaluate every subscription on every tick exactly as before this
// package existed; already-constructed instances can be switched with
// their own SetIncremental methods.
var disabled atomic.Bool

// Enabled reports whether new services use incremental matching by
// default. The default is true; it is false after SetEnabled(false).
func Enabled() bool { return !disabled.Load() }

// SetEnabled flips the package-wide default and returns the previous
// value, for -noincremental style flags and tests.
func SetEnabled(on bool) (prev bool) {
	return !disabled.Swap(!on)
}
