package main

import "time"

// hostNow is the benchmark's only read of the host clock: every host-time
// metric and every span boundary is a difference of two hostNow values.
func hostNow() time.Time {
	return time.Now() //caflint:allow wallclock -- the benchmark measures host time; this is its single clock read
}

// secondsSince returns the host seconds elapsed since t0.
func secondsSince(t0 time.Time) float64 { return hostNow().Sub(t0).Seconds() }
