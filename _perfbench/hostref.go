package main

import (
	"math/rand"
	"time"
)

// hostRef times a fixed reference loop between the simulator's timed
// pieces, so host time can be scaled to a fixed host speed.
//
// On a shared host the simulator's speed for identical work moves by up
// to 1.7× within a run and by 20–40% between runs minutes apart. A pointer
// chase over an L2-sized ring slows with it: at windows of 20 pieces its
// median correlates 0.9 with the simulator's, and the ratio of the two
// medians spreads a third as much as the simulator's own time. The loop is
// the benchmark's own code, so a change to the simulator cannot move it.
type hostRef struct {
	ring    []int32
	samples []float64 // host seconds of each timed loop
}

const (
	refRingLen = 1 << 16   // 256 KiB of int32: resident in L2
	refSteps   = 1_000_000 // one timed loop, about 6 ms
	// refNominalS is the reference loop's time on the nominal host,
	// 5 ns a step: scaled times read as host seconds on that host.
	refNominalS = refSteps * 5e-9
)

func newHostRef() *hostRef {
	perm := rand.New(rand.NewSource(1)).Perm(refRingLen)
	ring := make([]int32, refRingLen)
	for i, p := range perm {
		ring[p] = int32(perm[(i+1)%refRingLen])
	}
	return &hostRef{ring: ring}
}

// sample times one pass of the reference loop.
func (h *hostRef) sample() {
	t := time.Now()
	j := int32(0)
	for range refSteps {
		j = h.ring[j]
	}
	h.samples = append(h.samples, time.Since(t).Seconds())
	if j < 0 { // never: keeps the loop from being optimised away
		panic("hostRef: corrupt ring")
	}
}

// scale converts host seconds measured during the samples into host
// seconds on the nominal host.
func (h *hostRef) scale() float64 {
	return refNominalS / median(h.samples)
}
