package main

import "time"

// The sandbox this benchmark was sized on slows identical work by up to
// 1.6x for spells of seconds to minutes, and the spells outlast a run
// (README.md, "Noise"). Host times are therefore reported
// speed-corrected: each is scaled by how much slower than nominal a
// frozen kernel ran just before and just after it.

// refNominalS is what refKernel takes on that sandbox when it is quiet.
// It only fixes the unit: a corrected time is the seconds the work would
// have taken with the CPU at the speed at which the kernel takes this
// long. Parent and change are corrected by the same kernel, so their
// ratio does not depend on it.
const refNominalS = 0.0162

var refSink uint64

// refKernel runs the frozen reference kernel and returns the seconds it
// took: eight independent xorshift chains in registers. It keeps several
// execution ports busy, as the simulator's retire loops do, so it slows
// when they slow; a single dependent chain does not. Never change it:
// every recorded number is relative to it.
func refKernel() float64 {
	t := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	e, f, g, h := uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 3_000_000; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		e ^= e << 13
		f ^= f << 13
		g ^= g << 13
		h ^= h << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		e ^= e >> 7
		f ^= f >> 7
		g ^= g >> 7
		h ^= h >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
		e ^= e << 17
		f ^= f << 17
		g ^= g << 17
		h ^= h << 17
	}
	refSink += a + b + c + d + e + f + g + h
	return time.Since(t).Seconds()
}

// corrected scales a host time by the speed the kernel measured around
// it: before and after are refKernel's readings on either side.
func corrected(seconds, before, after float64) float64 {
	return seconds * refNominalS / ((before + after) / 2)
}
