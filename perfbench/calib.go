package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration.
//
// The development host's vCPUs each flip, every few seconds, between
// running at full speed and running about a third slower, and the share
// of slow stretches drifts over minutes. Ten back-to-back runs of the
// same code then spread by a quarter or more, more than any metric's
// bound, however long the window (README.md, "Host noise"). So every
// caller times a fixed integer loop, which shares no code or data with
// the program, at most every calEvery between its operations, and each
// timing is reported at the reference speed: multiplied by calRef over
// the loop's time around it. A change to the program moves the
// calibrated figures exactly as it moves the raw ones; a change in the
// host's speed moves the loop too and cancels. The metric notes print
// the raw figures beside the calibrated ones.

// calIters sizes one calibration slice.
const calIters = 200_000

// calRef is one calibration slice's time at the reference speed: a
// development-host vCPU running at full speed. Calibrated timings read
// as they would there.
const calRef = 500 * time.Microsecond

// calEvery is the least time between two calibrations of one caller.
const calEvery = 100 * time.Millisecond

var calSink atomic.Uint64

// calSlice runs the calibration loop once and returns its duration.
// Eight independent multiply-xorshift chains keep the core's integer
// units busy, the resource a co-running thread on the same core takes.
func calSlice() time.Duration {
	start := time.Now()
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for k := 0; k < calIters; k++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		e ^= e<<13 ^ a
		f ^= f>>7 ^ b
		g ^= g<<17 ^ c
		h ^= h>>9 ^ d
	}
	calSink.Add(a ^ b ^ c ^ d ^ e ^ f ^ g ^ h)
	return time.Since(start)
}

// calibrate runs the calibration loop on threads goroutines at once,
// one per CPU the caller's operations use, and returns the mean slice
// time.
func calibrate(threads int) time.Duration {
	if threads <= 1 {
		return calSlice()
	}
	d := make([]time.Duration, threads)
	var wg sync.WaitGroup
	for t := range d {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			d[t] = calSlice()
		}(t)
	}
	wg.Wait()
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(threads)
}

// setupCal calibrates after a set-up. It takes the median of five
// slices, since the three set-ups of a run are too few to average out a
// disturbed slice the way the hundreds of operations in a window do.
func setupCal() calPoint {
	d := make([]float64, 5)
	for i := range d {
		d[i] = float64(calSlice())
	}
	return calPoint{d: time.Duration(median(d))}
}

// calPoint is one calibration: when it ended and how long a slice took.
type calPoint struct {
	at time.Duration // since processStart
	d  time.Duration
}

// calScale is the factor that takes a timing made between the
// calibrations before and after it to the reference speed.
func calScale(before, after calPoint) float64 {
	return float64(calRef) / (float64(before.d+after.d) / 2)
}
