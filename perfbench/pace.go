package main

import (
	"syscall"
	"time"
)

// paced runs op(k) for k in [0, n) as an open loop: op k is due at
// t0 + k*period whether or not op k-1 has returned, so a stall delays
// every op queued behind it. It returns each op's latency measured from
// its due time and how late each op started.
func paced(t0 time.Time, n int, period time.Duration, op func(k int) error) (lat, late []time.Duration, err error) {
	lat = make([]time.Duration, n)
	late = make([]time.Duration, n)
	for k := 0; k < n; k++ {
		due := t0.Add(time.Duration(k) * period)
		sleepUntil(due)
		late[k] = time.Since(due)
		if err := op(k); err != nil {
			return nil, nil, err
		}
		lat[k] = time.Since(due)
	}
	return lat, late, nil
}

// sleepUntil waits for t, returning at once when t has passed. It sleeps
// in the nanosleep system call: the runtime's timers wake a goroutine on
// millisecond granularity, which would add up to a millisecond of
// lateness to every paced operation.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// microseconds converts durations to float microseconds.
func microseconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}
