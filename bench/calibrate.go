package main

import (
	"math/rand"
	"sync"
	"time"
)

// calibration is a fixed piece of work that belongs to the benchmark, not to
// the program under test. How long one pass takes says how fast the machine
// is right now.
//
// The box this benchmark is gated on shares its cores' execution units and
// its memory system with other tenants. For seconds to minutes at a time the
// same PageRank run takes 110 ms rather than 65, with nothing else running
// here. An episode outlasts a 15 s run, and the runs of one workload sit back
// to back inside it, so no statistic taken inside a run removes it: raw
// medians spread up to 50 % between ten runs of the same code. So the closed
// loop stops its clients a few times a second, times one pass, and scales
// each operation's latency by nominalPassMS / (the latest pass time):
// "calibrated milliseconds", the latency on a machine where a pass takes
// nominalPassMS. Raw values are printed and saved beside the calibrated ones.
//
// A pass has the two halves the engine's inner loop has, on every core: a
// gather over a seeded random index array reaching into more memory than the
// caches hold (slows down with a neighbour's memory traffic), then a chain of
// independent integer operations that keeps the execution ports full (slows
// down when a neighbour runs on the sibling hyperthread; a dependent chain of
// multiplies does not, and did not move during the episodes measured).
// Measured over episodes where the raw PageRank median ranged 65–120 ms, the
// ratio of run time to pass time stayed within ±7 %.
type calibration struct {
	idx []uint32
	x   []float64
	out []uint64
}

const (
	calSources    = 1 << 22                // 32 MiB of float64 sources
	calEdges      = 1 << 20                // 4 MiB of uint32 indices, split over the workers
	calALUSteps   = 1_500_000              // per worker
	calEvery      = 200 * time.Millisecond // pause between passes
	nominalPassMS = 8.0
)

func newCalibration(workers int) *calibration {
	rng := rand.New(rand.NewSource(1))
	c := &calibration{idx: make([]uint32, calEdges), x: make([]float64, calSources), out: make([]uint64, workers)}
	for i := range c.idx {
		c.idx[i] = uint32(rng.Intn(calSources))
	}
	for i := range c.x {
		c.x[i] = float64(i&1023) / 1024
	}
	return c
}

// pass runs the calibration once and returns its wall time in milliseconds.
func (c *calibration) pass() float64 {
	workers := len(c.out)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*len(c.idx)/workers, (w+1)*len(c.idx)/workers
			sum := 0.0
			for _, j := range c.idx[lo:hi] {
				sum += c.x[j]
			}
			// Eight chains with no dependence on one another within a step.
			a, b, d, e := uint64(w+1), uint64(w+2), uint64(w+3), uint64(w+4)
			f, g, h, k := uint64(w+5), uint64(w+6), uint64(w+7), uint64(w+8)
			for i := 0; i < calALUSteps; i++ {
				a = a*6364136223846793005 + 1442695040888963407
				b ^= b << 13
				b ^= b >> 7
				d += a ^ b
				e = e*3 + d
				f ^= f >> 17
				f *= 0x9E3779B97F4A7C15
				g += f & e
				h = h<<5 ^ g
				k += h | a
			}
			// Storing the results keeps both loops from being optimised away.
			c.out[w] = uint64(sum) + a + b + d + e + f + g + h + k
		}(w)
	}
	wg.Wait()
	return ms(time.Since(t0).Nanoseconds())
}
